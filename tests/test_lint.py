"""Source checks that need no import of the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sqfdepth").glob("*.py"))


def test_sources_found():
    assert any(path.name == "betti.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so an invariant the package relies on must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_only_cli_main_writes_to_stderr():
    # commands raise, and main turns every error into one "error:" line and an exit code
    path = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    in_main = {id(node) for node in ast.walk(main)}
    writers = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "sys.stderr" in ast.unparse(node)
        and id(node) not in in_main
    ]
    assert writers == [], f"cli.py writes to stderr outside main at lines {writers}"


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "ideals.py"], ids=lambda path: path.name
)
def test_engine_stays_on_masks(path):
    # an ideal is its generator masks; Monomial objects are a view for callers
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("gens", "gen_masks"))
        or (isinstance(node, ast.Name) and node.id in ("Monomial", "gen_masks"))
        or (isinstance(node, ast.arg) and node.arg == "gen_masks")
    ]
    assert uses == [], f"{path.name} leaves the generator masks at {uses}"


def test_one_column_evaluator():
    # both Betti walks reach homology through _Columns alone: no second
    # copy of the complex choice, the sieves or the degree arithmetic
    path = next(path for path in SOURCES if path.name == "betti.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    evaluator = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Columns"
    )
    inside = {id(node) for node in ast.walk(evaluator)}
    homology = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "FaceSieve")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "homology_dims")
        )
    ]
    outside = [node.lineno for node in homology if id(node) not in inside]
    assert homology and outside == [], f"betti.py computes homology outside _Columns at {outside}"


def test_shared_sieve_is_never_renumbered():
    # _Columns sieves Delta_sigma on the walk ideal's own ambient or on
    # sigma's own vertices; a renumbered shared sieve is a second route
    path = next(path for path in SOURCES if path.name == "betti.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    evaluator = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Columns"
    )
    packs = [
        node.lineno
        for node in ast.walk(evaluator)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_pack"
    ]
    assert packs == [], f"_Columns renumbers sigma onto a sieve at lines {packs}"


def test_betti_walks_the_twin_quotient():
    # the Betti walks enumerate orbit representatives as uint64 masks, and
    # the lcm lattice of an ideal with at most six generators as Python
    # ints: no 2^n subset sweep of the ambient, and no 32-bit masks that
    # stop at n = 32
    path = next(path for path in SOURCES if path.name == "betti.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sweeps = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name == "_all_subsets")
        or (isinstance(node, ast.Name) and node.id == "_all_subsets")
        or (isinstance(node, ast.Attribute) and node.attr == "_all_subsets")
    ]
    narrow = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "uint32")
        or (isinstance(node, ast.Constant) and node.value == "uint32")
    ]
    assert sweeps == [], f"betti.py uses the 2^n sweep at lines {sweeps}"
    assert narrow == [], f"betti.py builds uint32 masks at lines {narrow}"


def test_one_philox_generator_per_sampler():
    # a scan pass re-keys one generator per index: no Philox made per sample
    # (in the sampler's inner draw) or shared by every scan (at module level)
    path = next(path for path in SOURCES if path.name == "search.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sampler = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_sampler"
    )
    nested = {
        id(node)
        for inner in ast.walk(sampler)
        if isinstance(inner, ast.FunctionDef) and inner is not sampler
        for node in ast.walk(inner)
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.random.Philox"
    ]
    inside = {id(node) for node in ast.walk(sampler)} - nested
    lines = [node.lineno for node in calls]
    assert len(calls) == 1 and id(calls[0]) in inside, f"search.py makes a Philox at lines {lines}"


def test_one_table_of_generator_orders():
    # the key enumerates generator orders once per generator count, in the
    # cached table builder, and never per key
    path = next(path for path in SOURCES if path.name == "search.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builder = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_generator_orders"
    )
    assert [ast.unparse(d) for d in builder.decorator_list] == ["functools.cache"]
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("permutations")
    ]
    inside = {id(node) for node in ast.walk(builder)}
    lines = [node.lineno for node in calls]
    assert len(calls) == 1 and id(calls[0]) in inside, f"search.py permutes at lines {lines}"
