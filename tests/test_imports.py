"""Static checks on the package's modules.

Every name a module imports is used in it (the package's `__init__.py` is
exempt: its imports are the public re-exports collected into `__all__`),
only `sieve.py` runs the multiplicative sieve: every other module reads
mu, phi and the Mertens cumsum from the one arithmetic table, prime
zeta values come from `products._prime_zeta`, not mpmath's `primezeta`,
every Euler product's logs are taken in `products._partial_products` (the one
pass over the primes) alone, only `numutil._forked` forks a process, `products.py` gathers all the primes to a bound
(`primes_upto`) only in three named functions, so any other sum over primes
there runs through that pass, `assembly.py` calls no numpy
transcendental ufunc, and exact sums of arrays go through
`numutil.fsum_array` or the streamed `numutil._ExactSum`, not `fsum` of a
list nor `fsum` of a memoryview outside `numutil.py`.  The command-line module
imports everything it uses at its top.  Every name in `mulcm.__all__` is
called by the package or by the benchmark's workloads, or is an oracle or
test API listed with its reason.
"""

import ast
import importlib
import pathlib

import pytest

import mulcm

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mulcm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_accepts_used():
    src = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
           "from .x import y\nprint(np.pi, tau, y.z)\n")
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """Import statements inside a function, by the function's name."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{fn.name} (line {node.lineno})" for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def test_function_import_detector():
    src = "import os\ndef f():\n    def g():\n        import re\n    return os\n"
    assert function_imports(src) == ["f (line 4)", "g (line 4)"]


def test_cli_imports_at_module_level():
    # The package __init__ loads every layer module anyway, so an import
    # deferred into a command or target saves nothing.
    assert function_imports((SRC / "cli.py").read_text()) == []


@pytest.mark.parametrize("name", [p.stem for p in MODULES])
def test_package_attribute_is_the_module(name):
    # A re-exported function must not shadow the submodule of the same name.
    module = importlib.import_module(f"mulcm.{name}")
    assert getattr(mulcm, name) is module


# Names whose use outside sieve.py would sieve [1, n] again.
SIEVE_ENTRY_POINTS = {"sieve_range"}


def name_references(source: str, names, outside=frozenset()) -> list[str]:
    """Imports of, and references to, the given names, leaving out those in
    the module-level functions named in `outside`."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.FunctionDef) and node.name in outside)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found_names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            found_names = [node.id]
        elif isinstance(node, ast.Attribute):
            found_names = [node.attr]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in found_names
                  if name in names]
    return sorted(set(found))


def sieve_calls(source: str) -> list[str]:
    """Imports of, and references to, the sieve's entry points."""
    return name_references(source, SIEVE_ENTRY_POINTS)


def test_sieve_detector_flags_calls_and_imports():
    src = ("from .sieve import _table, sieve_range\nfrom . import sieve\n"
           "b = _table(9)\nc = sieve.sieve_range(1, 9)\n")
    assert sieve_calls(src) == ["sieve_range (line 1)", "sieve_range (line 4)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sieve.py"],
                         ids=lambda p: p.name)
def test_only_the_sieve_module_sieves(path):
    assert sieve_calls(path.read_text()) == []


# Prime zeta values come from products._prime_zeta alone; mpmath's primezeta
# (about three times slower at 40 digits) is its oracle in the tests.
def test_primezeta_detector_flags_calls_and_imports():
    src = ("import mpmath as mp\nfrom mpmath import primezeta\n"
           "a = mp.primezeta(2)\n_primezeta_cache = {}\nb = _prime_zeta(2)\n")
    assert name_references(src, {"primezeta"}) == ["primezeta (line 2)",
                                                   "primezeta (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_mpmath_primezeta(path):
    assert name_references(path.read_text(), {"primezeta"}) == []


# Processes are forked by numutil._forked alone, which reaps every worker it
# starts before it returns or raises.
def test_fork_detector_skips_only_the_named_function():
    src = ("import os\nfrom os import fork\n"
           "def _forked(w):\n    return os.fork()\n"
           "def other():\n    return os.fork()\n")
    assert name_references(src, {"fork"}, outside={"_forked"}) == [
        "fork (line 2)", "fork (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_fork_helper_forks(path):
    outside = {"_forked"} if path.name == "numutil.py" else set()
    assert name_references(path.read_text(), {"fork", "forkpty"}, outside=outside) == []


# Euler products take their logs in products._partial_products, the one pass
# whose float error products.FSLACK is derived for.
def test_log1p_detector_skips_only_the_named_function():
    src = ("import numpy as np\nfrom math import log1p\n"
           "def _partial_products(x):\n    return np.log1p(x)\n"
           "def other(x):\n    return np.log1p(x)\n")
    assert name_references(src, {"log1p"}, outside={"_partial_products"}) == [
        "log1p (line 2)", "log1p (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_log1p_only_in_the_partial_product(path):
    outside = {"_partial_products"} if path.name == "products.py" else set()
    assert name_references(path.read_text(), {"log1p"}, outside=outside) == []


# In products.py every sum over the primes to a cutoff runs through the one
# pass (_partial_products), which holds a segment of primes at a time.  The
# primes are gathered whole only for the small split of the prime zeta
# series, the per-prime factors of the aux sweeps and the desk check of the
# tail estimate, whose partials are pinned as top-down suffix sums.
PRIMES_UPTO_READERS = {"_split_primes", "_aux_blocks", "check_prime_tail"}


def test_primes_upto_detector_skips_every_named_function():
    src = ("from .sieve import primes_upto\n"
           "def _split_primes(q):\n    return primes_upto(q)\n"
           "def _aux_blocks(D):\n    return primes_upto(D)\n"
           "def new_sum(n):\n    return primes_upto(n).sum()\n")
    assert name_references(src, {"primes_upto"}, outside=PRIMES_UPTO_READERS) == [
        "primes_upto (line 1)", "primes_upto (line 7)"]


def test_products_sums_over_primes_only_in_the_pass():
    source = (SRC / "products.py").read_text()
    imports = {f"primes_upto (line {node.lineno})" for node in ast.parse(source).body
               if isinstance(node, ast.ImportFrom)}
    found = name_references(source, {"primes_upto"}, outside=PRIMES_UPTO_READERS)
    assert [ref for ref in found if ref not in imports] == []


# assembly.py takes its per-prime logs and roots from math (libm): numpy's
# transcendental ufuncs have SIMD loops whose last bits follow the CPU, and
# the assembled bound must not.
NUMPY_TRANSCENDENTALS = {"log", "sqrt", "exp", "power", "log1p"}


def numpy_transcendentals(source: str) -> list[str]:
    """References to numpy's log, sqrt, exp, power and log1p, as attributes
    of `np` or `numpy` or imported from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
                and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}):
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in NUMPY_TRANSCENDENTALS]
    return sorted(found)


def test_numpy_transcendental_detector_skips_math():
    src = ("import math\nimport numpy as np\nfrom numpy import exp\n"
           "a = np.log(x) + math.log(2) + math.sqrt(3)\nb = np.sqrt(a) * np.multiply(a, a)\n")
    assert numpy_transcendentals(src) == ["exp (line 3)", "log (line 4)", "sqrt (line 5)"]


def test_assembly_calls_no_numpy_transcendental():
    assert numpy_transcendentals((SRC / "assembly.py").read_text()) == []


def fsum_of_arrays(source: str) -> list[str]:
    """Calls of fsum whose argument is a `.tolist()` or a `memoryview(...)` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "fsum":
            continue
        for arg in node.args:
            if not isinstance(arg, ast.Call):
                continue
            if isinstance(arg.func, ast.Attribute) and arg.func.attr == "tolist":
                found.append(f"fsum of tolist (line {node.lineno})")
            elif isinstance(arg.func, ast.Name) and arg.func.id == "memoryview":
                found.append(f"fsum of memoryview (line {node.lineno})")
    return found


def test_fsum_detector_flags_tolist_arguments():
    src = ("import math\nfrom math import fsum\na = math.fsum(x.tolist())\n"
           "b = fsum((x * y).tolist())\nc = math.fsum(x)\nd = math.fsum([v.tolist()])\n")
    assert fsum_of_arrays(src) == ["fsum of tolist (line 3)", "fsum of tolist (line 4)"]


def test_fsum_detector_flags_memoryview_arguments():
    src = ("import math\nfrom math import fsum\na = math.fsum(memoryview(x))\n"
           "b = fsum(memoryview(x.astype(float)))\nc = math.fsum([memoryview(x)])\n"
           "d = memoryview(x)\ne = math.fsum(x.memoryview())\n")
    assert fsum_of_arrays(src) == ["fsum of memoryview (line 3)", "fsum of memoryview (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exact_sums_read_arrays_directly(path):
    # numutil.py holds the one exact array-sum path (fsum_array, and _ExactSum
    # for values that arrive in blocks); its memoryview fsum is the early-out.
    found = fsum_of_arrays(path.read_text())
    if path.name == "numutil.py":
        found = [f for f in found if "memoryview" not in f]
    assert found == []


# Public names that no module and no benchmark workload calls: the reference
# oracles, which stay in the package so the tests and the command line read
# one copy, and the single-product API the tests compare across cutoffs.
PUBLIC_FOR_TESTS = {
    "sigma_bruteforce": "exact S(X) from the definition, the oracle of every S route",
    "sigma_trace_exact": "exact S(1..X) by the divisor recursion, the scan's oracle",
    "sigma_via_gstar_identity": "S(X) by the coprime decomposition, the tail check's oracle",
    "gstar_exact": "exact G*_q(X), the oracle of the float gstar",
    "r1_star": "exact r1*(X; q) by triple enumeration, the oracle of r1_values",
    "h_linear": "H(1) at one cutoff, which the tests compare across cutoffs",
    "h_twothirds": "Hbar(2/3) at one cutoff, which the tests compare across cutoffs",
}
WORKLOADS = SRC.parents[1] / "bench" / "workloads.py"


def referenced_names(tree) -> set[str]:
    """Names, attributes, imported names and imported module names in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
            found.add((node.module or "").rpartition(".")[2])
    return found


def names_used_by_the_package() -> set[str]:
    """Names referenced in src/mulcm outside __init__.py, leaving out what a
    top-level def or class says of its own name."""
    used = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return used


def test_public_name_detector_skips_a_defs_own_name():
    tree = ast.parse("def f(n):\n    return f(n - 1) + g.h\nfrom .m import k\n")
    assert referenced_names(tree.body[0]) == {"f", "n", "g", "h"}
    assert referenced_names(tree.body[1]) == {"k", "m"}


def test_every_public_name_has_a_caller_or_a_reason():
    used = names_used_by_the_package()
    bench = referenced_names(ast.parse(WORKLOADS.read_text()))
    idle = {name for name in mulcm.__all__ if name not in used | bench}
    assert sorted(idle - set(PUBLIC_FOR_TESTS)) == []
    # Every allowlisted name is still public and still needs the allowance.
    assert sorted(set(PUBLIC_FOR_TESTS) - idle) == []
