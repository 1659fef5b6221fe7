"""Every public top-level name of the library is reached, and every
optional parameter is set.

A name counts as reached when a module of `src/cnfkc` refers to it
outside its own definition, when it is a subcommand (`cmd_*`), when the
benchmark's tracer wraps or counts it (`spans.SPANNED`, `spans.COUNTED`),
or when `ALLOWED` names it with a reason.  Anything else is code that
only its own tests keep alive: give it a caller or delete it with them.
An import is not a use, so a name only imported somewhere is unreached.

A defaulted parameter counts as set when some call in `src/`, `tests/`
or `perfbench/` passes it, by position or by keyword, or when
`ALLOWED_PARAMETERS` names it with a reason.  Anything else is an option
nothing uses: make its default the behaviour and delete it.
"""

import ast
import math
import os

import cnfkc
from test_spans import load_spans

SRC = os.path.dirname(os.path.abspath(cnfkc.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


# module.function.parameter -> why it stays although no call the scan
# sees passes it
ALLOWED_PARAMETERS = {
    "hardness.wid.primes": "cmd_measure passes it through its "
                           "worst_case[name](f, primes=...) dispatch",
    "hardness.phd.primes": "cmd_measure passes it through its "
                           "worst_case[name](f, primes=...) dispatch",
}


def _python_files(top):
    for folder, subdirs, files in os.walk(top):
        subdirs.sort()
        for fname in sorted(files):
            if fname.endswith(".py"):
                yield os.path.join(folder, fname)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _optional_parameters(node, module, cls=None):
    """(`module.function.parameter`, position) of every defaulted
    parameter of every def below node, position None when keyword-only.
    A method's position does not count `self`, and `__init__` goes by
    its class's name, as it is called."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.ClassDef):
            yield from _optional_parameters(sub, module, sub.name)
            continue
        if not isinstance(sub, ast.FunctionDef):
            yield from _optional_parameters(sub, module, cls)
            continue
        args = sub.args
        positional = args.posonlyargs + args.args
        name = sub.name
        if cls is not None and "staticmethod" not in {
                d.id for d in sub.decorator_list if isinstance(d, ast.Name)}:
            positional = positional[1:]
            if name == "__init__":
                name = cls
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield "%s.%s.%s" % (module, name, arg.arg), i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield "%s.%s.%s" % (module, name, arg.arg), None
        yield from _optional_parameters(sub, module)


def _calls():
    """callee name -> (positional count, keyword names) of every call in
    src/, tests/ and perfbench/; a `*args` counts as every position and a
    `**kwargs` as every keyword (None)."""
    calls = {}
    for top in ("src", "tests", "perfbench"):
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append((
                    math.inf if starred else len(node.args),
                    {kw.arg for kw in node.keywords}))
    return calls


def unset_parameters(allowed):
    """`module.function.parameter` of every optional parameter of
    `src/cnfkc` that no call sets and `allowed` does not name."""
    calls = _calls()
    out = []
    for path in _python_files(SRC):
        module = os.path.basename(path)[:-3]
        for full, i in _optional_parameters(_parse(path), module):
            _, function, param = full.split(".")
            if full in allowed or any(
                    (i is not None and count > i) or param in kws
                    or None in kws
                    for count, kws in calls.get(function, ())):
                continue
            out.append(full)
    return sorted(out)


def test_every_optional_parameter_is_set():
    assert unset_parameters(ALLOWED_PARAMETERS) == []


def test_every_allowed_parameter_is_otherwise_unset():
    assert sorted(set(ALLOWED_PARAMETERS) - set(unset_parameters({}))) == []
