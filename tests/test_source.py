"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import localring

SOURCE = Path(localring.__file__).parent
TESTS = Path(__file__).parent
HOT_MODULES = ("kernel.py", "order.py", "division.py", "stdbasis.py",
               "equising.py")


def test_no_assert_statements():
    # invariant checks must raise, so that they survive `python -O`
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _unused_imports(path: Path) -> list:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}:{name}" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    # the package re-exports its API from __init__, which reads no names
    found = []
    for path in [*sorted(SOURCE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        if path != SOURCE / "__init__.py":
            found += _unused_imports(path)
    assert not found, found


def _tuples_from_iterators(path: Path) -> list:
    """Calls tuple(<generator expression>) and tuple(map/zip/filter(...))."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and len(node.args) == 1):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id in ("map", "zip", "filter")):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_tuple_of_iterator_in_hot_modules():
    # tuple() over an iterator with no length allocates 10 slots and shrinks
    # the tuple; the shrunk tuples collect in CPython's per-size free lists
    # and keep the resident memory of a long process growing.  Build from a
    # list, or as (*map(...),), instead.
    found = []
    for name in HOT_MODULES:
        found += _tuples_from_iterators(SOURCE / name)
    assert not found, found


def _star_arguments(path: Path) -> list:
    """Calls with a star-unpacked positional argument, f(*xs)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(isinstance(arg, ast.Starred) for arg in node.args)]


def test_no_star_arguments_in_hot_modules():
    # f(*xs) packs its arguments into a fresh tuple, one per call, and those
    # tuples land in the same free lists; pass an iterable, or fold with
    # functools.reduce, instead
    found = []
    for name in HOT_MODULES:
        found += _star_arguments(SOURCE / name)
    assert not found, found


def _form_ctx_comparisons(path: Path) -> list:
    """Comparisons of a `.form_ctx` attribute with anything but None."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(isinstance(x, ast.Attribute) and x.attr == "form_ctx"
               for x in sides) and not any(
                   isinstance(x, ast.Constant) and x.value is None
                   for x in sides):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_forms_compared_only_by_the_admission_rule():
    # whether a series may enter a computation on a window is decided by
    # kernel._admit alone; order.initial_exponent, below kernel, keeps its
    # own check
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name not in ("kernel.py", "order.py"):
            found += _form_ctx_comparisons(path)
    assert not found, found


def _is_fraction_call(node) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "Fraction")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction"))


def _fraction_defaults(path: Path) -> list:
    """Calls x.get(key, Fraction(...)): a default built on every lookup."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) == 2):
            continue
        if _is_fraction_call(node.args[1]):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_fraction_defaults():
    # a lookup that misses is rare, but the default is built on every call;
    # read the module-level zero of `kernel` instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _fraction_defaults(path)
    assert not found, found


def test_fraction_default_lint_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(row, e, c):\n"
                    "    a = row.get(e, Fraction(0)) + c\n"
                    "    b = row.get(e, fractions.Fraction(1, 2))\n"
                    "    return a + b + row.get(e, _ZERO) + row.get(e)\n",
                    encoding="utf-8")
    assert _fraction_defaults(path) == ["m.py:2", "m.py:3"]


def _fraction_calls(path: Path, functions) -> list:
    """Calls Fraction(...) inside the named top-level functions and
    classes, nested definitions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for fn in tree.body
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
            and fn.name in functions
            for node in ast.walk(fn) if _is_fraction_call(node)]


#: the discriminant pass, with the functions that read its input off the
#: level polynomial and bound the minors it forms
HANKEL_PASS = ("_hankel_discriminants", "_jet_dot", "_level_jets",
               "_polygon_size")


def test_the_hankel_pass_builds_no_fraction():
    # the discriminant pass runs on integers (equising's docstring): it
    # returns integer minors with their scales, and the caller converts
    # only the minor it keeps
    found = _fraction_calls(SOURCE / "equising.py", HANKEL_PASS)
    assert not found, found


#: the steps that hand a tower's generators to its top level: the mu-jets
#: and their orders, the Weierstrass polynomials as integers over a
#: denominator, and their product
TOWER_PRODUCT = ("_ensure_regular", "_weierstrass_polynomial",
                 "_prepared_product")


def test_the_tower_product_builds_no_fraction():
    # the prepared generators are handed on and multiplied as integer jets
    # (equising's docstring); build_tower builds one Fraction per term of
    # the level it keeps
    found = _fraction_calls(SOURCE / "equising.py", TOWER_PRODUCT)
    assert not found, found


def test_fraction_call_lint_sees_a_planted_call_in_the_tower_product(tmp_path):
    path = tmp_path / "equising.py"
    path.write_text("def _prepared_product(n, prepared, mu):\n"
                    "    return [Fraction(c) for c in prepared], mu\n\n"
                    "def build_tower(gens, mu):\n"
                    "    return Fraction(mu)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, TOWER_PRODUCT) == ["equising.py:2"]


def test_fraction_call_lint_sees_a_planted_call_in_the_preparation(tmp_path):
    path = tmp_path / "equising.py"
    path.write_text("def _ensure_regular(polys, i, mu, rng):\n"
                    "    return polys, [Fraction(i)], None\n\n"
                    "def _weierstrass_polynomial(jet, p, i, mu):\n"
                    "    def one(e):\n"
                    "        return fractions.Fraction(1)\n"
                    "    return {e: one(e) for e in jet}, 1, None\n\n"
                    "def weierstrass_prepare(f, i, mu):\n"
                    "    return Fraction(mu)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, TOWER_PRODUCT) == [
        "equising.py:2", "equising.py:6"]


#: the kernel's one fraction-free product loop: `mul`, `substitute_linear`
#: and the tower's top level (`equising._prepared_product`) call it
KERNEL_PRODUCT = ("_int_product",)


def test_the_kernel_product_builds_no_fraction():
    # the loop multiplies integer numerators; each caller builds the
    # `Fraction`s of the terms it returns (kernel's `mul` docstring)
    found = _fraction_calls(SOURCE / "kernel.py", KERNEL_PRODUCT)
    assert not found, found


def test_fraction_call_lint_sees_a_planted_call_in_the_kernel_product(tmp_path):
    path = tmp_path / "kernel.py"
    path.write_text("def _int_product(a, b, form, cap):\n"
                    "    return {e: Fraction(c) for e, c in a.items()}\n\n"
                    "def mul(a, b):\n"
                    "    return Fraction(1)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, KERNEL_PRODUCT) == ["kernel.py:2"]


def test_the_pair_loop_builds_no_fraction():
    # completion forms each s-series on integers, windowed by the integer
    # level caps of the member records (stdbasis's docstring)
    found = _fraction_calls(SOURCE / "stdbasis.py", ("_integer_s_series",))
    assert not found, found


def test_fraction_call_lint_sees_a_planted_call_in_the_pair_loop(tmp_path):
    path = tmp_path / "stdbasis.py"
    path.write_text("def _integer_s_series(ri, rj):\n"
                    "    return ri.cap + Fraction(rj.level, 2)\n\n"
                    "def complete(I):\n"
                    "    return Fraction(I)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, ("_integer_s_series",)) == ["stdbasis.py:2"]


#: the division loop and the builders of its member records
DIVISION_LOOP = ("_divide", "_member", "_members")


def test_the_division_loop_builds_no_fraction():
    # the loop and its records hold integers; a quotient term comes back as
    # an integer pair, and only the callers that emit series build
    # rationals (division's docstring)
    found = _fraction_calls(SOURCE / "division.py", DIVISION_LOOP)
    assert not found, found


def test_fraction_call_lint_sees_a_planted_call_in_the_division_loop(tmp_path):
    path = tmp_path / "division.py"
    path.write_text("def _member(terms, cap, pk):\n"
                    "    return Fraction(min(terms.values()))\n\n"
                    "def _divide(terms, den, exact, members):\n"
                    "    def emit(w):\n"
                    "        return fractions.Fraction(w, den)\n"
                    "    return emit\n\n"
                    "def _members(gens, L, mu, pk):\n"
                    "    return [Fraction(g) for g in gens]\n\n"
                    "def hironaka_divide(F, divisors, L, mu):\n"
                    "    return Fraction(mu)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, DIVISION_LOOP) == [
        "division.py:2", "division.py:6", "division.py:10"]


def test_fraction_call_lint_sees_a_planted_call(tmp_path):
    path = tmp_path / "equising.py"
    path.write_text("def _jet_dot(a):\n"
                    "    return {e: Fraction(c, 2) for e, c in a.items()}\n\n"
                    "def _hankel_discriminants(a):\n"
                    "    def unpack(e):\n"
                    "        return fractions.Fraction(e)\n"
                    "    return unpack\n\n"
                    "def _first_nonvanishing(a):\n"
                    "    return Fraction(a)\n\n"
                    "def _level_jets(f):\n"
                    "    return [c * Fraction(1) for c in f]\n\n"
                    "def _polygon_size(w):\n"
                    "    return min(Fraction(v, 2) for v in w)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, HANKEL_PASS) == [
        "equising.py:2", "equising.py:6", "equising.py:13", "equising.py:16"]


#: the row-reduction oracle's elimination and the rows it is given
ORACLE_ROWS = ("ExactRowReducer", "ideal_span_rows")

#: the kernel helpers that build a `Fraction` per call: an L-value, a
#: window cut by L-values, the rational zero
RATIONAL_HELPERS = {"lvalue", "min_lvalue", "_window", "_ZERO"}


def test_the_oracle_rows_build_no_fraction():
    # the oracle eliminates on integers and reads each generator's
    # numerators once (diagram's docstring); a rational row that a caller
    # adds enters as its numerators over the lcm of its denominators
    path = SOURCE / "diagram.py"
    found = _fraction_calls(path, ORACLE_ROWS)
    found += _reads(path, ORACLE_ROWS, RATIONAL_HELPERS)
    assert not found, found


def test_fraction_lints_see_a_planted_call_in_the_oracle(tmp_path):
    path = tmp_path / "diagram.py"
    path.write_text("class ExactRowReducer:\n"
                    "    def add(self, row):\n"
                    "        return {e: Fraction(c) for e, c in row.items()}\n\n"
                    "def ideal_span_rows(gens, eta):\n"
                    "    o = min(lvalue(L, e) for e in gens[0].terms)\n"
                    "    return _window(gens[0].terms, L, eta - o)\n\n"
                    "def complement_count(D, L, eta):\n"
                    "    return Fraction(eta) + lvalue(L, D)\n",
                    encoding="utf-8")
    assert _fraction_calls(path, ORACLE_ROWS) == ["diagram.py:3"]
    assert _reads(path, ORACLE_ROWS, RATIONAL_HELPERS) == [
        "diagram.py:6:lvalue", "diagram.py:7:_window"]


def _reads(path: Path, definitions, names) -> list:
    """Reads of the given names inside the named top-level functions and
    classes, nested definitions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(node.lineno, node.id) for fn in tree.body
             if getattr(fn, "name", None) in definitions
             for node in ast.walk(fn) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load) and node.id in names]
    return [f"{path.name}:{line}:{name}" for line, name in sorted(found)]


def _imported_from(path: Path, modules) -> set:
    """The names a module binds by importing the given package modules or
    from them."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            if (node.module or "") in modules:
                names.update(a.asname or a.name for a in node.names)
            elif not node.module:
                names.update(a.asname or a.name for a in node.names
                             if a.name in modules)
    return names


def _reached(path: Path, roots) -> list:
    """The top-level definitions of a module that the named ones read,
    in turn, the named ones included, in source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Name) and node.id in defs]
    return [name for name in defs if name in reached]


#: the row-reduction oracle: the public functions that compute with it
ORACLE = ("ExactRowReducer", "ideal_span_rows", "jet_space_dim",
          "oracle_jet_quotient_table", "oracle_jet_quotient_dim",
          "oracle_sublevel_quotient_dim", "oracle_quotient_dim_mod_tail_power")


def test_the_oracle_shares_no_code_with_division_and_completion():
    # the oracle cross-checks division and completion, so neither it nor
    # any diagram helper it reads uses a name that diagram imports from them
    path = SOURCE / "diagram.py"
    found = _reads(path, _reached(path, ORACLE),
                   _imported_from(path, {"division", "stdbasis"}))
    assert not found, found


def test_independence_lint_sees_a_planted_use(tmp_path):
    path = tmp_path / "diagram.py"
    path.write_text("from . import division as dv, kernel\n"
                    "from .stdbasis import complete as done, CertifiedBasis\n\n"
                    "def _span(I, eta):\n"
                    "    return done(I, eta)\n\n"
                    "def oracle_jet_quotient_table(I, eta):\n"
                    "    return _span(I, eta)\n\n"
                    "class ExactRowReducer:\n"
                    "    def add(self, row):\n"
                    "        return dv.hironaka_divide(row)\n\n"
                    "def reduction_exponent(I):\n"
                    "    return done(I, kernel)\n",
                    encoding="utf-8")
    assert _imported_from(path, {"division", "stdbasis"}) == {
        "dv", "done", "CertifiedBasis"}
    assert _reached(path, ORACLE) == [
        "_span", "oracle_jet_quotient_table", "ExactRowReducer"]
    assert _reads(path, _reached(path, ORACLE),
                  _imported_from(path, {"division", "stdbasis"})) == [
        "diagram.py:5:done", "diagram.py:12:dv"]


def _package_imports(path: Path) -> set:
    """The package modules a module imports, by relative or absolute import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("localring."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "localring":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import a, b  or  from localring import a, b
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("line", [
    "from . import kernel, oracles",
    "from .oracles import invert_unit",
    "import localring.oracles as OR",
    "from localring import oracles",
    "from localring.oracles import print_series",
])
def test_package_imports_sees_every_import_form(tmp_path, line):
    path = tmp_path / "m.py"
    path.write_text(line + "\n", encoding="utf-8")
    assert "oracles" in _package_imports(path)


def test_parser_imports_only_the_arithmetic_layers():
    # the expression language sits on kernel and order; reading an ideal
    # file must not load the experiment and completion modules
    assert _package_imports(SOURCE / "parser.py") <= {"errors", "kernel", "order"}


def _nested_imports(path: Path) -> list:
    """Imports outside the module's top level and its TYPE_CHECKING block."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    for node in tree.body:
        allowed.add(id(node))
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            allowed.update(id(inner) for inner in node.body)
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in allowed]


def test_no_function_level_imports():
    # what a module needs shows in its imports, and the layering lint
    # above sees all of it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _nested_imports(path)
    assert not found, found


def _referrers(path: Path, name: str) -> set:
    """The top-level definitions of a module that read `name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {getattr(node, "name", f"line {node.lineno}") for node in tree.body
            if any(isinstance(sub, ast.Name) and sub.id == name
                   and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node))}


def test_cli_reports_are_rendered_only_by_run():
    # the handlers return library values and `run` renders each report
    # once, so no handler converts its own values
    assert _referrers(SOURCE / "cli.py", "jsonable") <= {"jsonable", "run"}


def test_referrers_sees_a_handler_that_renders(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def _cmd(x):\n    return list(map(jsonable, x))\n",
                    encoding="utf-8")
    assert _referrers(path, "jsonable") == {"_cmd"}


def _orphaned_private_definitions(paths) -> list:
    """Module-level private functions and classes that no line of the given
    modules reads outside the definition itself."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    defined = [(path, node) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    found = []
    for path, definition in defined:
        inside = {id(sub) for sub in ast.walk(definition)}
        name = definition.name
        if not any(id(sub) not in inside and (
                (isinstance(sub, ast.Name) and sub.id == name
                 and isinstance(sub.ctx, ast.Load))
                or (isinstance(sub, ast.Attribute) and sub.attr == name))
                for tree in trees.values() for sub in ast.walk(tree)):
            found.append(f"{path.name}:{definition.lineno}:{name}")
    return found


def test_no_orphaned_private_helpers():
    # a private helper that only its own body reads is dead code: deleting
    # its last caller must delete it too
    assert not _orphaned_private_definitions(sorted(SOURCE.glob("*.py")))


def test_orphan_lint_sees_a_helper_read_only_by_itself(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def _dead(n):\n    return _dead(n - 1)\n\n"
                 "def _used():\n    return 1\n\n"
                 "class _Record:\n    pass\n", encoding="utf-8")
    b.write_text("from .a import _used\n\ndef f():\n    return _used()\n",
                 encoding="utf-8")
    assert _orphaned_private_definitions([a, b]) == ["a.py:1:_dead",
                                                     "a.py:7:_Record"]


#: The class whose method `at` expands a source, by module.
SOURCE_READERS = {"kernel.py": "IdealPresentation"}


def _source_reads(paths) -> list:
    """Reads of a `.source` attribute anywhere but in the method `at` of
    `IdealPresentation` in kernel.py.  A perturbation is a presentation
    too (`approx.perturb`), so no other class reads a source."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(sub) for cls in tree.body
                   if isinstance(cls, ast.ClassDef)
                   and cls.name == SOURCE_READERS.get(path.name)
                   for method in cls.body
                   if isinstance(method, ast.FunctionDef) and method.name == "at"
                   for sub in ast.walk(method)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "source"
                  and isinstance(node.ctx, ast.Load) and id(node) not in allowed]
    return found


def test_presentations_expand_only_through_at():
    # how a presentation is certified on a wider window (the source, or
    # else the per-series rule) is decided in `kernel.expanded`, which only
    # `IdealPresentation.at` hands a source
    assert not _source_reads(sorted(SOURCE.glob("*.py")))


def test_source_lint_sees_a_read_outside_at(tmp_path):
    kernel, other = tmp_path / "kernel.py", tmp_path / "diagram.py"
    kernel.write_text("class IdealPresentation:\n"
                      "    def at(self, form, window):\n"
                      "        return self.source(form, window)\n\n"
                      "    def wider(self, form, window):\n"
                      "        return self.source(form, 2 * window)\n",
                      encoding="utf-8")
    other.write_text("def gens(I, L, w):\n    return I.source(L, w)\n",
                     encoding="utf-8")
    # only kernel.py's `IdealPresentation.at` may read a source: a second
    # reader class in approx.py, or a class of that name there, may not
    approx = tmp_path / "approx.py"
    approx.write_text("class PerturbationSpec:\n"
                      "    def at(self, form, window):\n"
                      "        return self.source(form, window)\n\n"
                      "class IdealPresentation:\n"
                      "    def at(self, form, window):\n"
                      "        return self.source(form, window)\n",
                      encoding="utf-8")
    assert _source_reads([kernel, other, approx]) == [
        "kernel.py:6", "diagram.py:2", "approx.py:3", "approx.py:7"]


def _dataclass_imports(path: Path) -> list:
    """Imports of the `dataclasses` module, in any form."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and not node.level
                and (node.module or "").split(".")[0] == "dataclasses")]


def test_no_module_imports_dataclasses():
    # `dataclasses` loads inspect, ast, dis and tokenize, and each class it
    # decorates costs about a millisecond to create: every CLI process pays
    # both at start-up.  Records are NamedTuples, and a validating value
    # class writes its own __init__, __eq__ and __repr__.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _dataclass_imports(path)
    assert not found, found


@pytest.mark.parametrize("line", [
    "from dataclasses import dataclass",
    "import dataclasses",
    "import dataclasses as dc",
])
def test_dataclass_lint_sees_every_import_form(tmp_path, line):
    path = tmp_path / "m.py"
    path.write_text(f"import math\n\n\ndef f():\n    {line}\n", encoding="utf-8")
    assert _dataclass_imports(path) == ["m.py:5"]


def _loaded_by_cli_start_up(names: tuple) -> list:
    """The modules among `names` that `import localring.cli` loads,
    without site."""
    probe = ("import localring.cli, sys; print(' '.join(m for m in "
             f"{names!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.split()


def test_cli_start_up_loads_no_introspection_modules():
    # none of the modules that dataclasses pulls in may be among them
    assert _loaded_by_cli_start_up(("dataclasses", "inspect", "ast", "dis")) == []


def test_cli_start_up_loads_every_package_module():
    # the package is the command path: code that only the tests run, such
    # as the reference implementations in tests/oracles.py, lives with them
    modules = tuple("localring" if path.stem == "__init__"
                    else f"localring.{path.stem}"
                    for path in sorted(SOURCE.glob("*.py"))
                    if path.stem != "__main__")
    loaded = _loaded_by_cli_start_up(modules)
    assert [m for m in modules if m not in loaded] == []


def test_cli_start_up_loads_no_path_modules():
    # the CLI reads its one file with open(); pathlib would bring urllib,
    # ipaddress and fnmatch into every process
    assert _loaded_by_cli_start_up(
        ("pathlib", "urllib.parse", "ipaddress", "fnmatch")) == []
