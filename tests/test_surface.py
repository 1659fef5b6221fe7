"""Every public top-level name of the library is reached.

A name counts as reached when a module of `src/cnfkc` refers to it
outside its own definition, when it is a subcommand (`cmd_*`), when the
benchmark's tracer wraps or counts it (`spans.SPANNED`, `spans.COUNTED`),
or when `ALLOWED` names it with a reason.  Anything else is code that
only its own tests keep alive: give it a caller or delete it with them.
An import is not a use, so a name only imported somewhere is unreached.
"""

import ast
import os

import cnfkc
from test_spans import load_spans

SRC = os.path.dirname(os.path.abspath(cnfkc.__file__))

# name -> why it stays although no library code reaches it
ALLOWED = {
    "hardness_report": "golden-pinned: its critical primes are in golden/",
    "report_to_json": "golden-pinned: renders hardness_report in golden/",
    "pure_of_leafset": "the pure clause of a leaf set, checked against the "
                       "paper's example; doped_clause_of_leafset shares "
                       "its helper",
}


def _defined(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _referenced(node):
    """The names a statement reads, as variables or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreached_names(allowed):
    """`module.name` of every public top-level name that nothing reaches
    and `allowed` does not name."""
    spans = load_spans()
    traced = {(layer, name) for table in (spans.SPANNED, spans.COUNTED)
              for layer, names in table.items() for name in names}
    defined, used = set(), set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            own = _defined(node)
            defined |= {(fname[:-3], name) for name in own
                        if not name.startswith("_")}
            used |= _referenced(node) - own
    return sorted("%s.%s" % (module, name) for module, name in defined
                  if name not in used and not name.startswith("cmd_")
                  and (module, name) not in traced and name not in allowed)


def test_every_public_name_is_reached():
    assert unreached_names(ALLOWED) == []


def test_every_allowed_name_is_defined_and_otherwise_unreached():
    # an entry whose name has gone, or that the library now reaches, is
    # stale
    unreached = {name.split(".", 1)[1] for name in unreached_names({})}
    assert sorted(set(ALLOWED) - unreached) == []
