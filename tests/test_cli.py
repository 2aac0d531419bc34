import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fincat.cli import main
from fincat.core import Bounds, FinCat, Morphism, bounds, builtin
from fincat.funcat import evaluation_functor, functor_category
from fincat.nerve import standard_simplex
from helpers import functor_to_dict, interleaved_chain_table
from test_core import chaotic_onto_cyclic


@pytest.fixture()
def workdir(tmp_path):
    two = builtin("arrow")
    (tmp_path / "arrow.json").write_text(json.dumps(two.to_dict() | {"label": "arrow"}))

    power = functor_category(builtin("free_iso"), two)
    cod = evaluation_functor(power, "1")
    (tmp_path / "cod.json").write_text(json.dumps(functor_to_dict(cod)))

    z3 = FinCat(
        ["*"],
        [Morphism(f"g{k}", "*", "*") for k in range(3)],
        {"*": "g0"},
        {(f"g{i}", f"g{j}"): f"g{(i + j) % 3}" for i in range(3) for j in range(3)},
    )
    broken = z3.to_dict()
    for entry in broken["comp"]:
        if entry["g"] == "g1" and entry["f"] == "g1":
            entry["gf"] = "g1"
    (tmp_path / "broken.json").write_text(json.dumps(broken))

    one = builtin("terminal")
    from fincat.core import FinFunctor

    bang = FinFunctor(
        two, one, {a: "*" for a in two.objects}, {m.name: "id_*" for m in two.morphisms}
    )
    (tmp_path / "bang.json").write_text(json.dumps(functor_to_dict(bang)))
    (tmp_path / "tower.json").write_text(
        json.dumps({"base": "builtin:terminal", "maps": ["bang.json"]})
    )
    (tmp_path / "fragment.json").write_text(
        json.dumps(
            {
                "objects": ["builtin:terminal", "builtin:arrow", "builtin:free_iso"],
                "chosen": "normal",
            }
        )
    )
    return tmp_path


def invoke(args, cwd):
    runner = CliRunner()
    import os

    prev = os.getcwd()
    os.chdir(cwd)
    try:
        return runner.invoke(main, args, catch_exceptions=False)
    finally:
        os.chdir(prev)


def payload(result):
    return json.loads(result.output.strip().splitlines()[-1])


def test_validate_ok(workdir):
    res = invoke(["validate", "arrow.json"], workdir)
    assert res.exit_code == 0
    body = payload(res)
    assert body["pass"] is True
    assert body["inputs"]["category"]["sha256"]


def test_validate_broken_exits_one_with_locus(workdir):
    res = invoke(["validate", "broken.json"], workdir)
    assert res.exit_code == 1
    body = payload(res)
    assert body["result"]["error"] == "AssociativityViolation"
    assert "comp(" in body["result"]["detail"]


def test_malformed_json_exits_two(workdir):
    (workdir / "garbage.json").write_text("{not json")
    res = invoke(["validate", "garbage.json"], workdir)
    assert res.exit_code == 2


def test_classify_cod_projection(workdir):
    res = invoke(["classify", "--functor", "cod.json"], workdir)
    assert res.exit_code == 0
    flags = payload(res)["result"]["fibration"]["flags"]
    assert flags["representable_isofibration"] and flags["normal_isofibration"]


def test_factorize_and_wf(workdir):
    res = invoke(["factorize", "--functor", "bang.json"], workdir)
    assert res.exit_code == 0
    res = invoke(["wf", "--functor", "bang.json"], workdir)
    assert res.exit_code == 0
    assert payload(res)["result"]["biconditionals"]["representable_iff"] is True


def test_limit_commands(workdir):
    res = invoke(["limit", "pullback", "--f", "bang.json", "--g", "bang.json"], workdir)
    assert res.exit_code == 0
    res = invoke(["limit", "pseudolimit", "--f", "bang.json"], workdir)
    assert res.exit_code == 0
    res = invoke(["limit", "pullback-nif", "--f", "bang.json", "--g", "bang.json"], workdir)
    assert res.exit_code == 0
    assert payload(res)["result"]["strict_oracle_agrees"] is True
    res = invoke(["limit", "tower", "--tower", "tower.json"], workdir)
    assert res.exit_code == 0


def test_counterexample_and_unknown_name(workdir):
    res = invoke(["counterexample", "groth_leibniz"], workdir)
    assert res.exit_code == 0
    res = invoke(["counterexample", "missing"], workdir)
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "name, detail",
    [
        ("fy_family(7,2)", "fy_family(7,2) is outside the supported finite ranges"),
        (
            f"fy_family({'1' * 5000},2)",
            "fy_family with a 5000-digit argument is outside the supported finite ranges",
        ),
    ],
    ids=["k-out-of-range", "k-of-5000-digits"],
)
def test_counterexample_outside_the_ranges_exits_two(workdir, name, detail):
    res = invoke(["counterexample", name], workdir)
    assert res.exit_code == 2
    assert payload(res) == {
        "command": "counterexample",
        "error": "BudgetExceeded",
        "detail": detail,
    }


def test_cosmos_check(workdir):
    res = invoke(["cosmos-check", "--fragment", "fragment.json"], workdir)
    assert res.exit_code == 0
    assert payload(res)["result"]["passed"] is True


def test_nip_command(workdir):
    res = invoke(["nip", "--space", "finset", "--size-bound", "2"], workdir)
    assert res.exit_code == 0
    assert payload(res)["result"]["all_fill"] is True


@pytest.mark.parametrize(
    "space, bound", [("finset", "-1"), ("finset-arrow", "-1"), ("finset-arrow", "4")]
)
def test_nip_command_refuses_bounds_out_of_range(workdir, space, bound):
    res = invoke(["nip", "--space", space, "--size-bound", bound], workdir)
    assert res.exit_code == 2
    assert "StructureError" in res.output


def test_nerve_command(workdir):
    res = invoke(["nerve", "--category", "arrow.json"], workdir)
    assert res.exit_code == 0
    body = payload(res)
    assert len(body["result"]["simplices"][0]) == 2


def test_determinism_modulo_timing(workdir):
    a = payload(invoke(["classify", "--functor", "cod.json"], workdir))
    b = payload(invoke(["classify", "--functor", "cod.json"], workdir))
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b


def test_budget_propagates(workdir):
    res = invoke(["--budget", "1", "limit", "pseudolimit", "--f", "bang.json"], workdir)
    assert res.exit_code == 2


def test_the_budget_refuses_only_the_powers_a_command_builds(workdir):
    """chaotic(3)^I needs 21 candidates and 1^I fewer, so under a budget of
    20 the pseudolimit and the factorization of chaotic(3) → 1, which never
    build the source's iso-power, pass, and the wf comparison out of it is
    refused."""
    from fincat.corpus import to_terminal_functor

    bang = to_terminal_functor(builtin("chaotic(3)"))
    (workdir / "chaotic3_bang.json").write_text(json.dumps(functor_to_dict(bang)))
    for command, exit_code in (
        (["limit", "pseudolimit", "--f"], 0),
        (["factorize", "--functor"], 0),
        (["wf", "--functor"], 2),
    ):
        res = invoke(["--budget", "20", *command, "chaotic3_bang.json"], workdir)
        assert res.exit_code == exit_code, (command, res.output)
    assert "needs 21 candidates, budget is 20" in res.output


def test_suite_envelopes_are_deterministic(workdir):
    def run():
        res = invoke(["suite", "acceptance", "--only", "5"], workdir)
        assert res.exit_code == 0
        bodies = [json.loads(line) for line in res.output.strip().splitlines()]
        for body in bodies:
            body.pop("timing_ms")
        return bodies

    assert run() == run()


def test_suite_rejects_unknown_name(workdir):
    res = invoke(["suite", "everything"], workdir)
    assert res.exit_code == 2


def test_oversized_builtin_exits_two(workdir):
    (workdir / "huge.json").write_text(json.dumps({"base": "builtin:chaotic(1000)", "maps": []}))
    res = invoke(["limit", "tower", "--tower", "huge.json"], workdir)
    assert res.exit_code == 2
    assert "BudgetExceeded" in res.output


def _without_p(square):
    del square["p"]


def _mmap_as_list(square):
    square["i"]["mmap"] = list(square["i"]["mmap"])


def _mmap_entry_as_list(square):
    mmap = square["i"]["mmap"]
    first = next(iter(mmap))
    mmap[first] = [mmap[first]]


def _bottom_source_comp_as_int(square):
    square["bottom"]["source"]["comp"] = 17


def _top_source_objects_as_string(square):
    square["top"]["source"]["objects"] = "01"


def _not_commuting(square):
    """p : arrow → arrow constant at 0 and bottom the identity: p∘top is
    constant and bottom∘i is not."""
    arrow = square["i"]["target"]
    square["p"] = {
        "source": arrow,
        "target": arrow,
        "omap": {"0": "0", "1": "0"},
        "mmap": {"id_0": "id_0", "id_1": "id_0", "a": "id_0"},
    }
    square["bottom"] = square["i"]


def _top_into_the_base(square):
    square["top"] = square["p"]


def _map_with_mmap_as_list(tower):
    """Inline the tower's one map, with its mmap a list."""
    samples = Path(__file__).resolve().parent.parent / "sample_data"
    inline = json.loads((samples / tower["maps"][0]).read_text())
    inline["mmap"] = list(inline["mmap"])
    tower["maps"] = [inline]


def _run_fresh(cwd, argv):
    """Run the CLI with ``argv`` in a fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "fincat.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _exit_two_with(tmp_path, sample, mutate, argv, detail, error="StructureError"):
    """Run the CLI in a fresh process on a mutated copy of a sample file and
    check that it exits 2 with ``error`` and ``detail`` on stderr and no
    traceback."""
    samples = Path(__file__).resolve().parent.parent / "sample_data"
    data = json.loads((samples / sample).read_text())
    mutate(data)
    (tmp_path / sample).write_text(json.dumps(data))
    res = _run_fresh(tmp_path, [*argv, sample])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    reported = json.loads(res.stderr.strip().splitlines()[-1])
    assert (reported["error"], reported["detail"]) == (error, detail)


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (_without_p, "p: missing"),
        (_mmap_as_list, "i.mmap: expected an object of strings"),
        (_mmap_entry_as_list, "i.mmap: expected an object of strings"),
        (_bottom_source_comp_as_int, "bottom.source.comp: expected a list of composition entries"),
        (_top_source_objects_as_string, "top.source.objects: expected a list of object names"),
        (_not_commuting, "square does not commute"),
        (_top_into_the_base, "top edge has wrong endpoints"),
    ],
)
def test_malformed_square_exits_two_with_a_located_error(tmp_path, mutate, detail):
    _exit_two_with(tmp_path, "square.json", mutate, ["lift", "--square"], detail)


@pytest.mark.parametrize(
    "sample, mutate, argv, detail, error",
    [
        (
            "tower.json",
            lambda tower: tower.pop("base"),
            ["limit", "tower", "--tower"],
            "base: missing",
            "StructureError",
        ),
        (
            "tower.json",
            lambda tower: tower.update(maps=3),
            ["limit", "tower", "--tower"],
            "maps: expected a list",
            "StructureError",
        ),
        (
            "fragment.json",
            lambda fragment: fragment.pop("objects"),
            ["cosmos-check", "--fragment"],
            "objects: missing",
            "StructureError",
        ),
        (
            "tower.json",
            _map_with_mmap_as_list,
            ["limit", "tower", "--tower"],
            "maps[0].mmap: expected an object of strings",
            "StructureError",
        ),
        (
            "tower.json",
            lambda tower: tower.update(base={"objects": "*"}),
            ["limit", "tower", "--tower"],
            "base.objects: expected a list of object names",
            "StructureError",
        ),
        (
            "fragment.json",
            lambda fragment: fragment["objects"].append({"objects": "*"}),
            ["cosmos-check", "--fragment"],
            "objects[3].objects: expected a list of object names",
            "StructureError",
        ),
        (
            "fragment.json",
            lambda fragment: fragment["objects"].__setitem__(1, "builtin:nowhere"),
            ["cosmos-check", "--fragment"],
            "objects[1]: no builtin category named 'nowhere'",
            "UnknownBuiltin",
        ),
        (
            "fragment.json",
            lambda fragment: fragment["objects"].__setitem__(1, "builtin:chaotic(60)"),
            ["cosmos-check", "--fragment"],
            "objects[1]: builtin chaotic(60) needs 216000 composition entries, limit is 125000",
            "BudgetExceeded",
        ),
    ],
    ids=[
        "tower-without-base",
        "tower-maps-as-int",
        "fragment-without-objects",
        "tower-map-mmap-as-list",
        "tower-base-objects-as-string",
        "fragment-object-objects-as-string",
        "fragment-unknown-builtin",
        "fragment-builtin-over-the-limit",
    ],
)
def test_malformed_tower_or_fragment_exits_two_with_a_located_error(
    tmp_path, sample, mutate, argv, detail, error
):
    _exit_two_with(tmp_path, sample, mutate, argv, detail, error)


def test_a_functor_file_that_a_node_names_breaks_a_law_under_its_stem(tmp_path):
    """A label-less functor file named by a tower's ``maps[0]`` is reported
    under its file's stem, as it is when named on the command line."""
    samples = Path(__file__).resolve().parent.parent / "sample_data"
    (tmp_path / "tower.json").write_text((samples / "tower.json").read_text())
    functor = json.loads((samples / "arrow_to_terminal.json").read_text())
    del functor["label"]
    functor.update(
        target="builtin:arrow",
        omap={"0": "0", "1": "0"},
        mmap={"id_0": "id_0", "id_1": "id_0", "a": "a"},
    )
    (tmp_path / "arrow_to_terminal.json").write_text(json.dumps(functor))
    res = invoke(["limit", "tower", "--tower", "tower.json"], tmp_path)
    assert res.exit_code == 1
    assert payload(res)["result"] == {
        "error": "NotFunctorial",
        "detail": "arrow_to_terminal: image of a has wrong boundary",
    }


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("power_budget", "x", "power_budget: expected a non-negative integer"),
        ("power_budget", True, "power_budget: expected a non-negative integer"),
        ("tower_bound", None, "tower_bound: expected a non-negative integer"),
        ("tower_bound", -1, "tower_bound: expected a non-negative integer"),
        ("label", [1], "label: expected a string"),
        ("chosen", 3, "chosen: expected a string"),
        (
            "chosen",
            "fibrations",
            "chosen: unknown class of maps: fibrations",
        ),
    ],
    ids=[
        "power-budget-as-string",
        "power-budget-as-bool",
        "tower-bound-null",
        "tower-bound-negative",
        "label-as-list",
        "chosen-as-int",
        "chosen-unknown",
    ],
)
def test_mistyped_fragment_field_exits_two_with_a_located_error(tmp_path, field, value, detail):
    _exit_two_with(
        tmp_path,
        "fragment.json",
        lambda fragment: fragment.update({field: value}),
        ["cosmos-check", "--fragment"],
        detail,
    )


@pytest.mark.parametrize("flag", ["--budget", "--tower-bound", "--word-bound"])
@pytest.mark.parametrize(
    "argv",
    [["validate", "arrow.json"], ["cosmos-check", "--fragment", "fragment.json"]],
    ids=["validate", "cosmos-check"],
)
def test_negative_global_bound_exits_two(workdir, flag, argv):
    res = invoke([flag, "-1", *argv], workdir)
    assert res.exit_code == 2
    assert "-1 is not in the range x>=0" in res.output


@pytest.mark.parametrize(
    "argv, mutate",
    [
        (["--budget", "0"], lambda fragment: None),
        ([], lambda fragment: fragment.update(power_budget=0)),
    ],
    ids=["global-budget", "fragment-budget"],
)
def test_budget_skipped_cosmos_check_exits_two(tmp_path, argv, mutate):
    _exit_two_with(
        tmp_path,
        "fragment.json",
        mutate,
        [*argv, "cosmos-check", "--fragment"],
        "fragment core-fragment: the budget skipped 69 checks, first [terminal,-] applied to"
        " terminal->terminal@0: power terminal^terminal needs 1 candidates, budget is 0",
        error="BudgetExceeded",
    )


def _first_simplex_as_list(dim):
    def mutate(sset):
        sset["simplices"][dim][0] = [sset["simplices"][dim][0]]

    return mutate


# a dimension of 5,000 digits, more than int() reads under its default limit
_OVERLONG_KEY = "1" * 5000 + ",0"


def _first_simplex_twice(dim):
    def mutate(sset):
        sset["simplices"][dim].append(sset["simplices"][dim][0])

    return mutate


def _triangle_boundary_with_an_edge_named_as_a_path(sset):
    """∂Δ[2] with its edge 02 renamed 01·12: in the classifying category
    that edge and the path 01 then 12 would both be named [01·12]."""
    whole = standard_simplex(2).to_dict()

    def rename(s):
        return "01·12" if s == "02" else s

    sset["simplices"] = [
        [rename(s) for s in level if len(set(s)) < 3] for level in whole["simplices"]
    ]
    for kind in ("faces", "degeneracies"):
        sset[kind] = {
            key: {rename(s): rename(t) for s, t in table.items() if len(set(s)) < 3}
            for key, table in whole[kind].items()
        }


def _identity_as_values(cat):
    cat["identity"] = list(cat["identity"].values())


def _identity_as_string(cat):
    cat["identity"] = cat["identity"]["0"]


def _identity_as_pairs(cat):
    cat["identity"] = [[a, i] for a, i in cat["identity"].items()]


def _objects_as_string(cat):
    cat["objects"] = "".join(cat["objects"])


def _objects_as_object(cat):
    cat["objects"] = {a: i for i, a in enumerate(cat["objects"], 1)}


def _label_as_list(cat):
    cat["label"] = [1]


def _morphism_named_by_an_integer(cat):
    """arrow.json with its morphism a, the third, renamed 5 everywhere."""
    for m in cat["morphisms"]:
        if m["name"] == "a":
            m["name"] = 5
    for e in cat["comp"]:
        for key in ("g", "f", "gf"):
            if e[key] == "a":
                e[key] = 5


def _composite_as_list(cat):
    cat["comp"][0]["gf"] = [cat["comp"][0]["gf"]]


def _unlabelled(mutate):
    """``mutate`` after deleting the node's ``label``."""

    def run(data):
        del data["label"]
        mutate(data)

    return run


_CATEGORY_SHAPE_CASES = [
    ("arrow.json", mutate, argv, detail)
    for mutate, detail in (
        (_identity_as_values, "identity: expected an object of morphism names"),
        (_identity_as_string, "identity: expected an object of morphism names"),
        (_identity_as_pairs, "identity: expected an object of morphism names"),
        (_objects_as_string, "objects: expected a list of object names"),
        (_objects_as_object, "objects: expected a list of object names"),
        (_label_as_list, "label: expected a string"),
        (_morphism_named_by_an_integer, "morphisms[2].name: expected a string"),
        (_composite_as_list, "comp[0].gf: expected a string"),
    )
    for argv in (["validate"], ["nerve", "--category"])
]


@pytest.mark.parametrize(
    "sample, mutate, argv, detail",
    [
        *_CATEGORY_SHAPE_CASES,
        (
            "arrow.json",
            lambda cat: cat["comp"].insert(0, {"g": "a", "f": "id_0", "gf": "id_0"}),
            ["validate"],
            "comp[1]: (a, id_0) is listed twice",
        ),
        (
            "arrow.json",
            lambda cat: cat["comp"].append({"g": "a", "f": "id_0", "gf": "id_0"}),
            ["validate"],
            "comp[4]: (a, id_0) is listed twice",
        ),
        (
            "arrow_identity.json",
            lambda functor: functor["omap"].pop("1"),
            ["classify", "--functor"],
            "arrow_identity: object map must cover exactly the source objects",
        ),
        (
            "arrow_identity.json",
            lambda functor: functor["mmap"].update(a="zz"),
            ["classify", "--functor"],
            "arrow_identity: a maps to unknown morphism zz",
        ),
        (
            "arrow_to_terminal.json",
            lambda functor: functor.update(label=[1, {"x": 2}]),
            ["wf", "--functor"],
            "label: expected a string",
        ),
        (
            "identity_cell.json",
            lambda cell: cell.update(label=[1, {"x": 2}]),
            ["limit", "equifier", "--t1", "identity_cell.json", "--t2"],
            "label: expected a string",
        ),
        (
            "identity_cell.json",
            lambda cell: cell["components"].pop("1"),
            ["limit", "equifier", "--t1", "identity_cell.json", "--t2"],
            "identity_cell: components must cover exactly the source objects",
        ),
        (
            "identity_cell.json",
            lambda cell: cell["components"].update({"1": ["id_1"]}),
            ["limit", "equifier", "--t1", "identity_cell.json", "--t2"],
            "components: expected an object of strings",
        ),
        (
            "interval_sset.json",
            _first_simplex_as_list(1),
            ["classify-sset", "--sset"],
            "simplices[1]: expected a list of strings",
        ),
        (
            "interval_sset.json",
            _first_simplex_as_list(2),
            ["classify-sset", "--sset"],
            "simplices[2]: expected a list of strings",
        ),
        (
            "interval_sset.json",
            lambda sset: sset["simplices"].__setitem__(0, 17),
            ["classify-sset", "--sset"],
            "simplices[0]: expected a list of strings",
        ),
        (
            "interval_sset.json",
            lambda sset: sset.update(faces=[]),
            ["classify-sset", "--sset"],
            "faces: expected an object of tables",
        ),
        (
            "interval_sset.json",
            lambda sset: sset["faces"].update({_OVERLONG_KEY: {}}),
            ["classify-sset", "--sset"],
            f"faces.{_OVERLONG_KEY}: expected a key dim,i",
        ),
        (
            "interval_sset.json",
            _first_simplex_twice(0),
            ["classify-sset", "--sset"],
            "interval_sset: simplices 0: 0 is listed twice",
        ),
        (
            "interval_sset.json",
            _first_simplex_twice(0),
            [
                "powers-check",
                "--category",
                str(Path(__file__).resolve().parent.parent / "sample_data" / "arrow.json"),
                "--sset",
            ],
            "interval_sset: simplices 0: 0 is listed twice",
        ),
        (
            "interval_sset.json",
            _first_simplex_twice(1),
            ["classify-sset", "--sset"],
            "interval_sset: simplices 1: (id_0) is listed twice",
        ),
        (
            "interval_sset.json",
            _triangle_boundary_with_an_edge_named_as_a_path,
            ["classify-sset", "--sset"],
            "Π(interval_sset): duplicate morphism names",
        ),
        # a file without a label is checked under its stem
        (
            "arrow.json",
            _unlabelled(lambda cat: cat["identity"].pop("1")),
            ["validate"],
            "arrow: identity map must cover exactly the objects",
        ),
        (
            "arrow_to_terminal.json",
            _unlabelled(lambda functor: functor["omap"].pop("1")),
            ["classify", "--functor"],
            "arrow_to_terminal: object map must cover exactly the source objects",
        ),
        (
            "identity_cell.json",
            _unlabelled(lambda cell: cell["components"].pop("1")),
            ["limit", "equifier", "--t1", "identity_cell.json", "--t2"],
            "identity_cell: components must cover exactly the source objects",
        ),
    ],
    ids=[
        *(
            f"{shape}-{command}"
            for shape in (
                "identity-as-values",
                "identity-as-string",
                "identity-as-pairs",
                "objects-as-string",
                "objects-as-object",
                "label-as-list",
                "morphism-named-by-an-integer",
                "composite-as-list",
            )
            for command in ("validate", "nerve")
        ),
        "pair-repeated-before-its-entry",
        "pair-repeated-after-its-entry",
        "omap-misses-an-object",
        "mmap-names-an-unknown-morphism",
        "functor-label-as-list",
        "transformation-label-as-list",
        "components-miss-an-object",
        "component-as-list",
        "sset-list-named-edge",
        "sset-list-named-triangle",
        "sset-vertex-level-as-integer",
        "sset-faces-as-list",
        "sset-face-key-over-the-int-digit-limit",
        "sset-vertex-twice",
        "powers-sset-vertex-twice",
        "sset-edge-twice",
        "sset-edge-named-as-a-path",
        "unlabelled-category",
        "unlabelled-functor",
        "unlabelled-transformation",
    ],
)
def test_malformed_functor_cell_or_sset_exits_two_with_a_located_error(
    tmp_path, sample, mutate, argv, detail
):
    _exit_two_with(tmp_path, sample, mutate, argv, detail)


@pytest.mark.parametrize(
    "changes, code, error, detail",
    [
        (
            {("i2", "c"): "a", ("b", "a"): "b"},
            1,
            "BoundaryViolation",
            "comp(i2,c) = a: cod is 1, expected 2",
        ),
        (
            {("i2", "c"): "yy", ("b", "a"): "zz"},
            2,
            "StructureError",
            "chain: comp('i2', 'c') = yy is not a morphism",
        ),
    ],
    ids=["boundary-exits-one", "not-a-morphism-exits-two"],
)
def test_an_interleaved_table_reports_its_first_failure_in_file_order(
    tmp_path, changes, code, error, detail
):
    """The envelope (exit 1) or the refusal (exit 2) names the first failing
    entry of the file, not the first of the table's rows."""
    (tmp_path / "chain.json").write_text(json.dumps(interleaved_chain_table(changes)))
    res = _run_fresh(tmp_path, ["validate", "chain.json"])
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    if code == 1:
        reported = json.loads(res.stdout.strip().splitlines()[-1])["result"]
    else:
        reported = json.loads(res.stderr.strip().splitlines()[-1])
    assert (reported["error"], reported["detail"]) == (error, detail)


@pytest.mark.parametrize(
    "functor, code, error, detail",
    [
        (
            chaotic_onto_cyclic(),
            1,
            "NotFunctorial",
            "functor: composition not preserved at (u0_1,u1_0)",
        ),
        (
            chaotic_onto_cyclic(mmap={"u0_0": "g1"}),
            1,
            "NotFunctorial",
            "functor: identity of 0 not preserved",
        ),
        (
            chaotic_onto_cyclic(omap={"0": "x"}),
            2,
            "StructureError",
            "functor: 0 maps to unknown object x",
        ),
        (
            chaotic_onto_cyclic(mmap={"u0_0": "g2"}),
            2,
            "StructureError",
            "functor: u0_0 maps to unknown morphism g2",
        ),
    ],
    ids=["composition", "identity", "unknown-object", "unknown-morphism"],
)
def test_classify_reports_a_law_error_and_refuses_a_shape_error(
    tmp_path, functor, code, error, detail
):
    """A functor that breaks a law is a failing result (exit 1); one whose
    maps leave the target is refused (exit 2)."""
    (tmp_path / "functor.json").write_text(json.dumps(functor_to_dict(functor)))
    res = invoke(["classify", "--functor", "functor.json"], tmp_path)
    assert res.exit_code == code
    body = payload(res)
    if code == 1:
        assert body["pass"] is False
        body = body["result"]
    else:
        assert body["command"] == "classify" and "result" not in body
    assert (body["error"], body["detail"]) == (error, detail)


def _set_entry(kind, key, simplex, value):
    def mutate(sset):
        sset[kind][key][simplex] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (lambda sset: sset["simplices"].pop(), "interval: expected simplex lists for dimensions 0..3"),
        (lambda sset: sset["simplices"][0].append("0"), "interval: simplices 0: 0 is listed twice"),
        (lambda sset: sset["faces"].pop("1,0"), "interval: face table (1,0) must cover dimension 1"),
        (_set_entry("faces", "1,0", "01", "01"), "interval: face (1,0) lands outside dimension 0"),
        (_set_entry("faces", "2,1", "011", "00"), "interval: d0 d1 fails at 011 (dim 2)"),
        (_set_entry("degeneracies", "2,0", "001", "0011"), "interval: s0 s0 fails at 01 (dim 1)"),
        (_set_entry("degeneracies", "0,0", "0", "11"), "interval: d0 s0 fails at 0 (dim 0)"),
    ],
    ids=[
        "three-simplex-lists",
        "vertex-twice",
        "no-face-table-1-0",
        "face-outside-its-dimension",
        "face-face-identity",
        "degeneracy-degeneracy-identity",
        "face-degeneracy-identity",
    ],
)
def test_classify_sset_refuses_a_broken_interval(tmp_path, mutate, detail):
    """Δ[1] with one table entry or list broken is refused (exit 2) with
    the first simplicial law or shape it breaks."""
    sset = standard_simplex(1).to_dict()
    mutate(sset)
    (tmp_path / "interval.json").write_text(json.dumps(sset))
    res = invoke(["classify-sset", "--sset", "interval.json"], tmp_path)
    assert res.exit_code == 2
    assert payload(res) == {"command": "classify-sset", "error": "StructureError", "detail": detail}


def test_classify_runs_the_identity_of_chaotic_32_without_a_recursion_limit(tmp_path):
    """``classify`` reads only the kinds of an equivalence, so on the
    identity of chaotic(32) it runs the fibration checks and the full
    faithfulness and essential surjectivity checks over 1,024 morphisms and
    no inverse search (the next test forces that search): the run ends with
    exit 0 and no traceback."""
    cat = builtin("chaotic(32)")
    identity = {
        "source": "builtin:chaotic(32)",
        "target": "builtin:chaotic(32)",
        "omap": {a: a for a in cat.objects},
        "mmap": {m.name: m.name for m in cat.morphisms},
    }
    (tmp_path / "id32.json").write_text(json.dumps(identity))
    res = _run_fresh(tmp_path, ["classify", "--functor", "id32.json"])
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])["result"]
    assert result["equivalence"]["is_equivalence"] is True


def test_the_witness_of_the_identity_of_chaotic_32_builds_without_a_recursion_limit(tmp_path):
    """The retraction search behind the witness's structure assigns one
    position per object and per non-identity morphism, here 32 + 992, on an
    explicit stack: in a fresh process, under the default recursion limit,
    reading the inverse, unit and counit builds a witness that validates."""
    script = (
        "from fincat.core import builtin, identity_functor\n"
        "from fincat.equivalence import classify_equivalence, validate_witness\n"
        "w = classify_equivalence(identity_functor(builtin('chaotic(32)')))\n"
        "w.inverse, w.unit, w.counit\n"
        "validate_witness(w)\n"
        "print(w.kind, w.inverse.is_identity(), w.unit.is_identity(), w.counit.is_identity())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout.split() == ["injective", "True", "True", "True"]


def test_powers_check_of_the_interval_into_chaotic_4_finds_the_bijection(tmp_path):
    """The leveled bijection has one position per simplex, 4368 here, on an
    explicit stack: the run ends with exit 0, equal counts and a bijection."""
    samples = Path(__file__).resolve().parent.parent / "sample_data"
    (tmp_path / "chaotic4.json").write_text(json.dumps(builtin("chaotic(4)").to_dict()))
    sset = str(samples / "interval_sset.json")
    res = _run_fresh(tmp_path, ["powers-check", "--sset", sset, "--category", "chaotic4.json"])
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])["result"]
    assert result["left_counts"] == result["right_counts"] == [16, 256, 4096]
    assert result["bijection_found"] is True


def test_powers_check_refuses_a_negative_dimension(workdir):
    sset = str(Path(__file__).resolve().parent.parent / "sample_data" / "interval_sset.json")
    argv = ["powers-check", "--sset", sset, "--category", "arrow.json", "--dim", "-1"]
    res = invoke(argv, workdir)
    assert res.exit_code == 2
    assert json.loads(res.output.strip().splitlines()[-1]) == {
        "command": "powers-check",
        "error": "StructureError",
        "detail": "dimension -1 is negative",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["classify-sset", "--sset", "interval_sset.json"],
        ["powers-check", "--sset", "interval_sset.json", "--category", "arrow.json", "--dim", "0"],
    ],
    ids=["classify-sset", "powers-check"],
)
def test_word_bound_zero_refuses_the_first_generator(argv):
    res = invoke(["--word-bound", "0", *argv], Path(__file__).resolve().parent.parent / "sample_data")
    assert res.exit_code == 2
    assert payload(res) == {
        "command": argv[0],
        "error": "BoundExceeded",
        "detail": "generator (a) is a word longer than the bound 0",
    }


def test_tower_longer_than_the_tower_bound_exits_two(workdir):
    res = invoke(["--tower-bound", "0", "limit", "tower", "--tower", "tower.json"], workdir)
    assert res.exit_code == 2
    assert payload(res) == {
        "command": "limit tower",
        "error": "BoundExceeded",
        "detail": "tower length 1 exceeds the bound 0",
    }


def _refused(argv, error, detail):
    return pytest.param(argv, error, detail, id=" ".join(argv))


@pytest.mark.parametrize(
    "argv, error, detail",
    [
        _refused(
            ["--budget", "1", "counterexample", "groth_leibniz"],
            "EnumerationBudgetExceeded",
            "power arrow^arrow needs 4 candidates, budget is 1",
        ),
        *[
            _refused(
                ["--budget", "1", "suite", "acceptance", "--only", str(n)],
                "EnumerationBudgetExceeded",
                f"power {power} needs {needs} candidates, budget is 1",
            )
            for n, power, needs in [
                (1, "terminal^free_iso", 2),
                (2, "free_iso^free_iso", 4),
                (8, "arrow^Π(Δ[1])", 4),
                (9, "terminal^free_iso", 2),
                (10, "terminal^free_iso", 2),
            ]
        ],
        _refused(
            ["--word-bound", "1", "suite", "acceptance", "--only", "8"],
            "BoundExceeded",
            "word (a) has no representative shorter than the bound 1",
        ),
        _refused(
            ["--tower-bound", "2", "suite", "acceptance", "--only", "4"],
            "BoundExceeded",
            "tower length 3 exceeds the bound 2",
        ),
    ],
)
def test_global_bounds_reach_counterexample_and_suite(workdir, argv, error, detail):
    res = invoke(argv, workdir)
    assert res.exit_code == 2
    # the refusal is the only output: no criterion's envelope precedes it
    assert len(res.output.strip().splitlines()) == 1
    command = "suite acceptance" if "suite" in argv else "counterexample"
    assert payload(res) == {"command": command, "error": error, "detail": detail}


def test_unknown_criterion_exits_two_before_any_criterion_runs(workdir, monkeypatch):
    from fincat import acceptance

    ran = []
    monkeypatch.setitem(acceptance.CRITERIA, 5, lambda: ran.append(5))
    res = invoke(["suite", "acceptance", "--only", "5,99"], workdir)
    assert res.exit_code == 2
    assert payload(res) == {
        "command": "suite acceptance",
        "error": "UnknownName",
        "detail": "no criterion numbered 99",
    }
    assert ran == []


@pytest.mark.parametrize("only, ran", [("5,5", [5]), ("5,3,5", [3, 5])])
def test_each_chosen_criterion_runs_once_in_numeric_order(workdir, only, ran):
    res = invoke(["suite", "acceptance", "--only", only], workdir)
    assert res.exit_code == 0
    envelopes = [json.loads(line) for line in res.stdout.strip().splitlines()]
    assert [e["command"] for e in envelopes] == [f"suite acceptance #{n}" for n in ran]


def test_suite_emits_each_criterion_as_it_ends_before_a_later_one_is_refused(workdir):
    res = invoke(["--word-bound", "1", "suite", "acceptance", "--only", "6,8"], workdir)
    assert res.exit_code == 2
    envelopes = [json.loads(line) for line in res.stdout.strip().splitlines()]
    assert [(e["command"], e["pass"]) for e in envelopes] == [("suite acceptance #6", True)]
    assert json.loads(res.stderr) == {
        "command": "suite acceptance",
        "error": "BoundExceeded",
        "detail": "word (a) has no representative shorter than the bound 1",
    }


def test_no_bounds_scope_outlives_its_command(workdir):
    res = invoke(["--budget", "0", "cosmos-check", "--fragment", "fragment.json"], workdir)
    assert res.exit_code == 2
    assert bounds() == Bounds()
    res = invoke(["limit", "pseudolimit", "--f", "bang.json"], workdir)
    assert res.exit_code == 0
    assert payload(res)["settings"] == {"budget": 20_000, "tower_bound": 4, "word_bound": 4}


SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"


def _header(command, args, inputs):
    return pytest.param(command, args, inputs, id=command)


@pytest.mark.parametrize(
    "command, args, inputs",
    [
        _header("validate", ["arrow.json"], {"category": "arrow.json"}),
        _header("classify", ["--functor", "cod_iso_power.json"], {"functor": "cod_iso_power.json"}),
        _header(
            "factorize", ["--functor", "arrow_to_terminal.json"], {"functor": "arrow_to_terminal.json"}
        ),
        _header("lift", ["--square", "square.json"], {"square": "square.json"}),
        *[
            _header(
                f"limit {name}",
                ["--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"],
                {"f": "arrow_to_terminal.json", "g": "arrow_to_terminal.json"},
            )
            for name in ("pullback", "isocomma", "pullback-nif")
        ],
        _header(
            "limit pseudolimit", ["--f", "arrow_to_terminal.json"], {"f": "arrow_to_terminal.json"}
        ),
        _header(
            "limit inserter",
            ["--f", "arrow_identity.json", "--g", "arrow_identity.json"],
            {"f": "arrow_identity.json", "g": "arrow_identity.json"},
        ),
        _header(
            "limit equifier",
            ["--t1", "identity_cell.json", "--t2", "identity_cell.json"],
            {"t1": "identity_cell.json", "t2": "identity_cell.json"},
        ),
        _header("limit split", ["--e", "arrow_identity.json"], {"e": "arrow_identity.json"}),
        _header("limit tower", ["--tower", "tower.json"], {"tower": "tower.json"}),
        _header(
            "leibniz",
            ["--j", "endpoint_inclusion.json", "--p", "arrow_to_terminal.json"],
            {"j": "endpoint_inclusion.json", "p": "arrow_to_terminal.json"},
        ),
        _header("wf", ["--functor", "arrow_to_terminal.json"], {"functor": "arrow_to_terminal.json"}),
        _header("cosmos-check", ["--fragment", "fragment.json"], {"fragment": "fragment.json"}),
        _header("nip", ["--space", "finset", "--size-bound", "2"], {}),
        _header("nerve", ["--category", "arrow.json"], {"category": "arrow.json"}),
        _header("classify-sset", ["--sset", "interval_sset.json"], {"sset": "interval_sset.json"}),
        _header(
            "powers-check",
            ["--sset", "interval_sset.json", "--category", "arrow.json", "--dim", "1"],
            {"sset": "interval_sset.json", "category": "arrow.json"},
        ),
        _header("counterexample", ["groth_leibniz"], {}),
    ],
)
def test_every_command_reports_its_path_and_digests_its_files(command, args, inputs):
    res = invoke([*command.split(), *args], SAMPLES)
    assert res.exit_code == 0
    body = payload(res)
    assert body["command"] == command
    assert body["inputs"] == {
        key: {"path": name, "sha256": hashlib.sha256((SAMPLES / name).read_bytes()).hexdigest()}
        for key, name in inputs.items()
    }


def test_a_nested_command_run_as_a_module_reports_its_path():
    res = _run_fresh(
        SAMPLES, ["limit", "pullback", "--f", "arrow_to_terminal.json", "--g", "arrow_to_terminal.json"]
    )
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["command"] == "limit pullback"
    assert sorted(body["inputs"]) == ["f", "g"]


def test_a_law_error_run_as_a_module_reports_its_command():
    res = _run_fresh(SAMPLES, ["validate", "nonassociative.json"])
    assert res.returncode == 1
    body = json.loads(res.stdout)
    assert body["command"] == "validate"
    assert sorted(body["inputs"]) == ["category"]
    assert body["result"]["error"] == "AssociativityViolation"


def test_a_refusal_run_as_a_module_names_its_command_on_stderr():
    res = _run_fresh(SAMPLES, ["limit", "tower", "--tower", "arrow.json"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "command": "limit tower",
        "error": "StructureError",
        "detail": "base: missing",
    }


def test_help_shows_the_command_docstring():
    res = invoke(["classify", "--help"], SAMPLES)
    assert res.exit_code == 0
    assert "Classify a functor: isofibration flags and equivalence kinds." in res.output
