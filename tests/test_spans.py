"""The names `perfbench/spans.py` wraps exist in the library.

The tracer looks each one up with `getattr`, so a renamed or deleted
public function would crash every traced benchmark run.  The module is
loaded by path; it imports only the standard library.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_and_counted_name_is_callable():
    spans = load_spans()
    missing = [layer + "." + name
               for table in (spans.SPANNED, spans.COUNTED)
               for layer, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   "cnfkc." + layer), name, None))]
    assert missing == []
    assert set(spans.SPANNED) <= set(spans.MODULES)
