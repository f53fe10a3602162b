"""Every library name and field is one that a program reaches.

A program is the library itself (``src/wavegrf``), the benchmark
(``bench/*.py``) and the demos (``demos/*.py``); tests do not count.

* Every top-level function and class of the library, and every method and
  property of those classes, is named outside its own definition: a name,
  an attribute or a string constant equal to it.  An import, such as a
  re-export in ``__init__``, is not a use.  Dunder methods are called
  implicitly and are left out.
* Every dataclass field and every ``self.x`` attribute of a library class
  is read: some program loads ``.x``.  A load on ``self`` counts for its
  own class only; a write (``self.x += 1`` too) counts for none, and so does
  a load passed straight into a call of its own class, which only copies it.

Names are matched by name only, as in ``test_options``: a load of ``.x``
on any object other than ``self`` counts for every class with a field
``x``.  A name no program reaches is deleted, or named in ``KEPT`` with
the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "wavegrf"

#: "name", "Class.name" or "Class.field" -> why it stays unreached
KEPT = {
    "WaveletSystem.wavelet_values": "the dual wavelet the tests check criterion 1 against",
    "CovarianceModel.preconditioned_dense": "the untapered reference of the spectral tests",
    "GrfSampler.covariance": "the exact covariance the sampling tests compare draws to",
    "cached_model": "memoized models shared by the test suite",
    "CsvSampleSource": "documented input of externally generated MLMC samples",
    "write_sample_csv": "documented writer of the CsvSampleSource format",
}


def _trees():
    paths = (sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py")))
    return {path: ast.parse(path.read_text()) for path in paths}


def _definitions(trees):
    """(key, name, node) of each top-level function and class of the library
    and of each method of those classes, dunders left out."""
    for path, tree in trees.items():
        if path.parent != LIBRARY:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                        yield f"{node.name}.{f.name}", f.name, f


def _fields(trees):
    """``Class.x`` of each dataclass field and each ``self.x`` written in a class."""
    out = set()
    for c in [c for path, tree in trees.items() if path.parent == LIBRARY
              for c in tree.body if isinstance(c, ast.ClassDef)]:
        if any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in c.decorator_list):
            out |= {f"{c.name}.{s.target.id}" for s in c.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
        out |= {f"{c.name}.{n.attr}" for n in ast.walk(c)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return out


def _uses(trees):
    """name -> nodes naming it (names, attributes, identifier strings)."""
    uses = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            name = (n.id if isinstance(n, ast.Name) else
                    n.attr if isinstance(n, ast.Attribute) else
                    n.value if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and n.value.isidentifier() else None)
            if name is not None:
                uses.setdefault(name, []).append(n)
    return uses


def _reads(trees):
    """``Class.x`` read on ``self`` in that class, and names ``x`` read on other objects."""
    own, any_object = set(), set()
    for tree in trees.values():
        for c in [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]:
            copies = {id(a) for n in ast.walk(c) if isinstance(n, ast.Call)
                      and getattr(n.func, "id", None) == c.name
                      for a in n.args + [k.value for k in n.keywords]}
            own |= {f"{c.name}.{n.attr}" for n in ast.walk(c)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    and id(n) not in copies}
        any_object |= {n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                       and not (isinstance(n.value, ast.Name) and n.value.id == "self")}
    return own, any_object


def unreached() -> set:
    trees = _trees()
    uses = _uses(trees)
    out = set()
    for key, name, node in _definitions(trees):
        inside = {id(n) for n in ast.walk(node)}
        if all(id(u) in inside for u in uses.get(name, [])):
            out.add(key)
    own, any_object = _reads(trees)
    out |= {f for f in _fields(trees)
            if f not in own and f.split(".")[1] not in any_object}
    return out


def test_every_library_name_and_field_is_reached_or_kept():
    gone = unreached()
    extra, stale = sorted(gone - set(KEPT)), sorted(set(KEPT) - gone)
    assert not extra, f"no program reaches these, delete them: {extra}"
    assert not stale, f"KEPT names one a program reaches, or one gone: {stale}"
