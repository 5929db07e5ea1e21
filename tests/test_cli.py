"""Command-line surface: golden outputs, formats, exit codes."""

import dataclasses
import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from sqfdepth.betti import betti_table, depth_report
from sqfdepth import cli
from sqfdepth.cli import main
from sqfdepth.errors import (
    AmbientMismatch,
    DegenerateSample,
    InvalidExponent,
    InvalidFamilyParameter,
    InvalidGenerator,
    NotATree,
    ParseError,
    SpaceTooLarge,
    SqfdepthError,
    ZeroIdeal,
)
from sqfdepth.family import build_family
from sqfdepth.graphs import Graph
from sqfdepth.homology import FieldSpec
from sqfdepth.ideals import Ideal
from sqfdepth.search import SearchConfig

ROOT = Path(__file__).resolve().parent.parent

GOLDEN_DEPTH_FAMILY6 = (
    '{"n": 6, "field_char": 2, "betti": [{"i": 1, "j": 3, "value": 5}, '
    '{"i": 2, "j": 4, "value": 4}, {"i": 2, "j": 5, "value": 1}, '
    '{"i": 3, "j": 6, "value": 1}], "proj_dim": 3, "depth": 3, '
    '"regularity": 3, "field_sensitive": false}\n'
)

GOLDEN_GPROFILE_FAMILY8 = (
    '{"nu": 2, "profile": [{"k": 1, "d_k": 3, "depth": 3, "g": 1}, '
    '{"k": 2, "d_k": 6, "depth": 7, "g": 2}]}\n'
)


@pytest.fixture
def family6_file(tmp_path):
    path = tmp_path / "family6.ideal"
    path.write_text(build_family(6).to_text())
    return str(path)


@pytest.fixture
def family8_file(tmp_path):
    path = tmp_path / "family8.ideal"
    path.write_text(build_family(8).to_text())
    return str(path)


def rp2_ideal() -> Ideal:
    """Stanley-Reisner ideal of the 6-vertex projective plane: the 10 non-faces."""
    facets = {
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    }
    missing = sorted(set(itertools.combinations(range(1, 7), 3)) - facets)
    return Ideal.from_supports(missing, 6)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_depth_family6(self, capsys, family6_file):
        code, out, _ = run(capsys, "depth", family6_file)
        assert code == 0
        assert out == GOLDEN_DEPTH_FAMILY6

    def test_gprofile_family8(self, capsys, family8_file):
        code, out, _ = run(capsys, "gprofile", family8_file)
        assert code == 0
        assert out == GOLDEN_GPROFILE_FAMILY8

    def test_gprofile_family6(self, capsys, family6_file):
        code, out, _ = run(capsys, "gprofile", family6_file)
        assert code == 0
        assert json.loads(out) == {
            "nu": 2,
            "profile": [
                {"k": 1, "d_k": 3, "depth": 3, "g": 1},
                {"k": 2, "d_k": 6, "depth": 5, "g": 0},
            ],
        }

    def test_gprofile_single_edge(self, capsys, tmp_path):
        path = tmp_path / "edge.ideal"
        path.write_text("n=2\n1 2\n")
        code, out, _ = run(capsys, "gprofile", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["nu"] == 1
        assert len(payload["profile"]) == 1

    def test_verify_family_range(self, capsys):
        code, out, _ = run(capsys, "verify-family", "--n-min", "6", "--n-max", "12")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 7
        for n, report in zip(range(6, 13), reports):
            assert report["n"] == n
            assert report["g1"] == 1
            assert report["g2"] == n - 6
            assert all(c["pass"] for c in report["checks"])

    def test_verify_family_repeat_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "verify-family", "--n-min", "6", "--n-max", "7")
        _, second, _ = run(capsys, "verify-family", "--n-min", "6", "--n-max", "7")
        assert first == second


class TestFamilyGoldens:
    """``sqfd depth`` on family members, byte for byte against recorded outputs.

    The benchmark's goldens cover n = 10..13.  The n = 16 files were recorded
    with an engine that computed the homology of every survivor, so they
    check the twin-orbit reduction against the full walk.  The n = 20 file
    was recorded with an engine that took every orbit to Hochster's complex
    (31 s, 3.2 GB), so it checks the reduced generator complexes and the
    cone skip against that walk.  The n = 24 file was recorded with an
    engine that swept all 2^n subsets and listed every survivor's entries
    before aggregating (8.5 s), so it checks the twin quotient and the
    per-orbit aggregation against that walk.
    """

    GOLDENS = sorted(
        [*(ROOT / "bench" / "golden").glob("depth-n*-p*.json"),
         *(ROOT / "tests" / "golden").glob("depth-n*-p*.json")]
    )

    def test_goldens_present(self):
        names = {path.name for path in self.GOLDENS}
        assert {"depth-n13-p2.json", "depth-n12-p3.json"} <= names
        assert {"depth-n16-p2.json", "depth-n16-p3.json", "depth-n20-p2.json"} <= names
        assert "depth-n24-p2.json" in names

    @pytest.mark.parametrize("golden", GOLDENS, ids=lambda path: path.stem)
    def test_depth_reproduces_golden(self, capsys, tmp_path, golden):
        n, p = re.fullmatch(r"depth-n(\d+)-p(\d+)", golden.stem).groups()
        path = tmp_path / "family.ideal"
        path.write_text(build_family(int(n)).to_text())
        code, out, _ = run(capsys, "depth", str(path), "--char", p)
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")


class TestSearchGoldens:
    """``sqfd search`` on n = 8 cubics, stdout and log byte for byte.

    Recorded with a scan that memoised depth per orbit of powers only, so
    they check the per-orbit profile memo against that path.
    """

    @pytest.mark.parametrize("p, samples, seed", [(2, 200, 101), (3, 100, 102)])
    def test_search_reproduces_golden(self, capsys, tmp_path, family8_file, p, samples, seed):
        stem = ROOT / "tests" / "golden" / f"search-n8-p{p}-seed{seed}"
        log = tmp_path / "findings.jsonl"
        code, out, _ = run(
            capsys, "search", "--ambient-n", "8", "--seed", str(seed),
            "--samples", str(samples), "--gen-degree", "3", "--gen-count", "5",
            "--char", str(p), "--inject", family8_file, "--log", str(log),
        )
        assert code == 0
        assert out == stem.with_suffix(".json").read_text(encoding="utf-8")
        assert log.read_bytes() == stem.with_suffix(".jsonl").read_bytes()


class TestIdealCommands:
    def test_power_one_round_trips_bytes(self, capsys, family6_file, tmp_path):
        code, out, _ = run(capsys, "power", family6_file, "-k", "1")
        assert code == 0
        assert out == build_family(6).to_text()
        other = tmp_path / "two.ideal"
        other.write_text("n=4\n1 2\n3 4\n")
        code, out, _ = run(capsys, "power", str(other), "-k", "1")
        assert out == "n=4\n1 2\n3 4\n"

    def test_power_two(self, capsys, family6_file):
        code, out, _ = run(capsys, "power", family6_file, "-k", "2")
        assert code == 0
        assert Ideal.parse(out) == build_family(6).squarefree_power(2)

    def test_minimal_primes(self, capsys, family6_file):
        code, out, _ = run(capsys, "minimal-primes", family6_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["krull_dim"] == 4
        assert [4, 5, 6] in payload["primes"]
        assert payload["primes"] == sorted(payload["primes"])

    def test_minimal_primes_path_forty(self, capsys, tmp_path):
        path = tmp_path / "path40.ideal"
        path.write_text(Ideal.from_supports([[i, i + 1] for i in range(1, 40)], 40).to_text())
        code, out, _ = run(capsys, "minimal-primes", str(path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["primes"]) == 73396
        assert payload["krull_dim"] == 20
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "24b2d8ae7933dfaa6252a7776999853bd07ca550d2f9fa76781a9c967868dcb3"
        )

    def test_family_emits_text_format(self, capsys):
        code, out, _ = run(capsys, "family", "--n", "6")
        assert code == 0
        assert out == build_family(6).to_text()

    def test_betti_matches_depth_report(self, capsys, family6_file):
        code, out, _ = run(capsys, "betti", family6_file)
        assert code == 0
        assert out == GOLDEN_DEPTH_FAMILY6

    def test_betti_prints_what_depth_prints(self, capsys, tmp_path):
        path = tmp_path / "rp2.ideal"
        path.write_text(rp2_ideal().to_text())
        for extra in ([], ["--char", "3"]):
            betti = run(capsys, "betti", str(path), *extra)
            assert betti == run(capsys, "depth", str(path), *extra)
            assert betti[0] == 0 and json.loads(betti[1])["field_sensitive"] is False

    def test_both_primes_flags_projective_plane(self, capsys, tmp_path):
        path = tmp_path / "rp2.ideal"
        path.write_text(rp2_ideal().to_text())
        code, out, _ = run(capsys, "depth", str(path), "--both-primes")
        payload = json.loads(out)
        assert code == 0
        assert payload["depth"] == 2
        assert payload["field_sensitive"] is True
        code, out, _ = run(capsys, "depth", str(path), "--char", "3", "--both-primes")
        payload = json.loads(out)
        assert payload["depth"] == 3
        assert payload["field_sensitive"] is True

    def test_both_primes_compares_against_two_unless_char_is_two(self, capsys, tmp_path):
        # the projective plane's torsion is 2-torsion only: p = 3 and p = 5
        # agree, so a flag at --char 5 means the second table was p = 2
        path = tmp_path / "rp2.ideal"
        path.write_text(rp2_ideal().to_text())
        code, out, _ = run(capsys, "depth", str(path), "--char", "5", "--both-primes")
        payload = json.loads(out)
        assert (code, payload["field_char"], payload["depth"]) == (0, 5, 3)
        assert payload["field_sensitive"] is True
        report = depth_report(rp2_ideal(), FieldSpec(5), both_primes=True)
        assert report.betti == depth_report(rp2_ideal(), FieldSpec(3)).betti
        assert report.betti != depth_report(rp2_ideal(), FieldSpec(2)).betti


class TestGraphCommands:
    def test_tree_agrees_with_engine(self, capsys, tmp_path):
        path = tmp_path / "path4.graph"
        path.write_text(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]).to_text())
        code, out, _ = run(capsys, "graph-depth", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "n_vertices": 4,
            "field_char": 2,
            "is_tree": True,
            "engine_depth": 2,
            "independence_domination": 2,
            "lemma_depth": 2,
            "agree": True,
        }

    def test_cycle_reports_no_lemma(self, capsys, tmp_path):
        path = tmp_path / "c3.graph"
        path.write_text("v=3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "graph-depth", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["is_tree"] is False
        assert payload["lemma_depth"] is None
        assert payload["agree"] is None


class TestSearchCommand:
    def test_injected_family_flagged(self, capsys, family8_file):
        code, out, _ = run(
            capsys,
            "search",
            "--ambient-n", "8",
            "--seed", "4",
            "--samples", "5",
            "--gen-degree", "3",
            "--gen-count", "5",
            "--inject", family8_file,
        )
        assert code == 0
        payload = json.loads(out)
        injected = [f for f in payload["findings"] if f["index"] < 0]
        assert injected and injected[0]["violations"] == [1]

    def test_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text(
            "# tiny scan\nambient_n = 5\nseed = 12\nsample_count = 8\n"
            "gen_degree = 2-3\ngen_count = 3\nprimes = 2\n"
        )
        code, out, _ = run(capsys, "search", "--config", str(cfgfile))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["evaluated"] == 8
        assert payload["summary"]["seed"] == 12

    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text("ambient_n = 5\nseed = 12\nsample_count = 8\ngen_count = 3\n")
        code, out, _ = run(capsys, "search", "--config", str(cfgfile), "--seed", "99")
        assert json.loads(out)["summary"]["seed"] == 99

    @pytest.mark.parametrize(
        "in_file, flag",
        [("gen_count = 3", ["--density", "0.4"]), ("density = 0.4", ["--gen-count", "3"])],
        ids=["density-over-count", "count-over-density"],
    )
    def test_mode_flag_overrides_the_other_mode_of_the_config(
        self, capsys, tmp_path, in_file, flag
    ):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text(f"ambient_n = 5\nseed = 12\nsample_count = 8\n{in_file}\n")
        by_config = run(capsys, "search", "--config", str(cfgfile), *flag)
        by_flags = run(
            capsys, "search", "--ambient-n", "5", "--seed", "12", "--samples", "8", *flag
        )
        assert by_config == by_flags
        assert by_config[0] == 0 and json.loads(by_config[1])["summary"]["evaluated"] == 8

    def test_both_mode_flags_refused_over_a_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text("ambient_n = 5\nsample_count = 8\ngen_count = 3\n")
        code, out, err = run(
            capsys, "search", "--config", str(cfgfile), "--density", "0.4", "--gen-count", "2"
        )
        assert (code, out) == (2, "")
        assert "density and gen_count pick two sampling modes" in err

    def test_search_requires_ambient(self, capsys):
        code, _, err = run(capsys, "search", "--samples", "3")
        assert code == 2
        assert "ambient" in err

    def test_sample_count_past_the_philox_key_refused(self, capsys, monkeypatch):
        # index 2^64 would spill into the seed's half of the key and repeat the next seed
        monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: pytest.fail("the scan ran"))
        code, out, err = run(
            capsys, "search", "--ambient-n", "8", "--samples", str(2**64 + 1), "--gen-count", "3"
        )
        assert (code, out) == (2, "")
        assert "sample_count must be at most 2**64, got 18446744073709551617" in err

    def test_bad_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text("ambient = 5\n")
        code, _, err = run(capsys, "search", "--config", str(cfgfile))
        assert code == 2

    def test_repeated_prime_refused(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "search", "--ambient-n", "6", "--samples", "5", "--gen-count", "3",
            "--char", "2", "--char", "2",
        )
        assert (code, out) == (2, "")
        assert "distinct" in err
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text("ambient_n = 6\nsample_count = 5\ngen_count = 3\nprimes = 2, 2\n")
        code, out, err = run(capsys, "search", "--config", str(cfgfile))
        assert (code, out) == (2, "")
        assert "distinct" in err

    def test_bad_prime_in_config_names_its_line(self, capsys, tmp_path):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text("ambient_n = 6\ngen_count = 3\nprimes = 2, x\n")
        code, out, err = run(capsys, "search", "--config", str(cfgfile))
        assert (code, out) == (2, "")
        assert f"{cfgfile}:3: bad value for primes" in err

    def test_every_field_has_one_flag_and_one_config_key(self, tmp_path):
        fields = {f.name for f in dataclasses.fields(SearchConfig)} - {"inject"}
        assert set(cli._SEARCH_FIELDS) == fields
        values = {
            "ambient_n": "5", "seed": "7", "sample_count": "3", "gen_degree": "2-3",
            "gen_count": "4", "density": "0.5", "primes": "3", "edge_ideals_only": "true",
            "exhaustive": "true", "exhaustive_cap": "64",
        }
        parser = cli.build_parser()
        for name, (flag, convert, _) in cli._SEARCH_FIELDS.items():
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(f"{name} = {values[name]}\n")
            from_config = cli._parse_config_file(str(cfgfile))[name]
            argv = ["search", flag] if from_config is True else ["search", flag, values[name]]
            from_flag = getattr(parser.parse_args(argv), name)
            assert from_config == convert(values[name]), name
            assert (tuple(from_flag) if isinstance(from_flag, list) else from_flag) == from_config

    def test_config_scan_equals_flag_scan(self, capsys, tmp_path, family8_file):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text(
            "ambient_n = 8\nseed = 3\nsample_count = 20\ngen_degree = 2-3\n"
            "gen_count = 3-5\nprimes = 2, 3\nexhaustive_cap = 9\n"
        )
        inject = ["--inject", family8_file]
        by_config = run(capsys, "search", "--config", str(cfgfile), *inject)
        by_flags = run(
            capsys, "search", "--ambient-n", "8", "--seed", "3", "--samples", "20",
            "--gen-degree", "2-3", "--gen-count", "3-5", "--char", "2", "--char", "3",
            "--exhaustive-cap", "9", *inject,
        )
        assert by_config == by_flags
        assert by_config[0] == 0 and json.loads(by_config[1])["findings"]

    def test_bad_span_flag_names_the_flag(self, capsys):
        for span in ("3-x", "1-2-3"):
            with pytest.raises(SystemExit) as exc:
                main(["search", "--ambient-n", "5", "--gen-count", "2", "--gen-degree", span])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert "--gen-degree" in captured.err and span in captured.err

    def test_edge_mode_on_two_variables(self, capsys):
        code, out, err = run(
            capsys, "search", "--ambient-n", "2", "--edge-ideals-only", "--exhaustive"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["summary"]["evaluated"] == 1

    def test_exhaustive_cap_below_one_is_a_usage_error(self, capsys, tmp_path):
        log = tmp_path / "findings.jsonl"
        code, out, err = run(
            capsys, "search", "--ambient-n", "4", "--exhaustive", "--edge-ideals-only",
            "--exhaustive-cap", "-1", "--log", str(log),
        )
        assert (code, out) == (2, "")
        assert "exhaustive_cap" in err
        assert not log.exists()

    def test_zero_injected_ideal_refused_before_scanning(self, capsys, tmp_path, family8_file):
        empty = tmp_path / "empty.ideal"
        empty.write_text("n=8\n")
        log = tmp_path / "findings.jsonl"
        code, out, err = run(
            capsys, "search", "--ambient-n", "8", "--samples", "0", "--gen-count", "2",
            "--inject", family8_file, "--inject", str(empty), "--log", str(log),
        )
        assert (code, out) == (2, "")
        assert "zero" in err
        assert not log.exists()


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "depth", "/nonexistent/x.ideal")
        assert code == 2 and out == "" and err

    def test_malformed_ideal(self, capsys, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("n=3\n1 x\n")
        code, out, err = run(capsys, "depth", str(path))
        assert code == 2 and out == "" and "line 2" in err

    def test_repeated_variable_index_refused(self, capsys, tmp_path):
        # "1 1 2" would be x1^2 x2, which is not squarefree
        path = tmp_path / "bad.ideal"
        path.write_text("n=3\n1 2\n1 1 2\n")
        for argv in (["depth", path], ["gprofile", path], ["power", path, "-k", "1"]):
            code, out, err = run(capsys, *map(str, argv))
            assert code == 2 and out == "" and "line 3" in err and "repeated" in err
        code, out, err = run(
            capsys, "search", "--ambient-n", "3", "--samples", "1", "--gen-count", "1",
            "--inject", str(path),
        )
        assert code == 2 and out == "" and "line 3" in err

    def test_zero_ideal_where_disallowed(self, capsys, tmp_path):
        path = tmp_path / "zero.ideal"
        path.write_text("n=4\n")
        code, _, err = run(capsys, "gprofile", str(path))
        assert code == 1 and "zero ideal" in err

    def test_zero_ideal_depth_is_fine(self, capsys, tmp_path):
        path = tmp_path / "zero.ideal"
        path.write_text("n=4\n")
        code, out, _ = run(capsys, "depth", str(path))
        assert code == 0
        assert json.loads(out)["depth"] == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["power", "{ideal}", "-k", "0"], "exponent must be >= 1, got 0"),
            (["family", "--n", "5"], "family requires n >= 6, got 5"),
            (["family", "--n", "70"], "ambient_n must be in 1..63, got 70"),
            (["graph-depth", "{graph}"], "line 1: v must be in 1..63, got 'v=70'"),
            (
                ["search", "--ambient-n", "7", "--exhaustive", "--edge-ideals-only"],
                "exhaustive space 2^21 exceeds cap 65536",
            ),
            (
                ["search", "--ambient-n", "6", "--density", "0.5", "--gen-count", "2"],
                "density and gen_count pick two sampling modes: set one, not both",
            ),
        ],
        ids=[
            "power-k0", "family-n5", "family-n70", "graph-header-v70", "search-over-cap",
            "search-density-and-count",
        ],
    )
    def test_bad_arguments_exit_2(self, capsys, tmp_path, family6_file, argv, message):
        graph = tmp_path / "big.graph"
        graph.write_text("v=70\n1 2\n")
        argv = [arg.format(ideal=family6_file, graph=graph) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_bad_input_errors_are_value_errors(self):
        # main exits 2 on a ValueError and 1 on any other package error
        bad_input = (
            ParseError, InvalidGenerator, AmbientMismatch, InvalidExponent,
            InvalidFamilyParameter, SpaceTooLarge, NotATree,
        )
        assert all(issubclass(e, SqfdepthError) and issubclass(e, ValueError) for e in bad_input)
        assert not any(issubclass(e, ValueError) for e in (ZeroIdeal, DegenerateSample))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ambient_n = 5\nexhaustive = maybe\n", ":2: bad value for exhaustive"),
            ("# scan\nambient_n = 5\n\nexhaustive\n", ":4: expected key = value, got 'exhaustive'"),
        ],
        ids=["bad-boolean", "no-equals-sign"],
    )
    def test_bad_config_line_exits_2(self, capsys, tmp_path, text, message):
        cfgfile = tmp_path / "scan.cfg"
        cfgfile.write_text(text)
        code, out, err = run(capsys, "search", "--config", str(cfgfile))
        assert (code, out) == (2, "")
        assert f"{cfgfile}{message}" in err

    def test_verify_family_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-family", "--n-min", "5", "--n-max", "7")
        assert code == 2 and err

    def test_verify_family_refuses_large_n_max_before_computing(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("verify_theorem called")

        monkeypatch.setattr(cli, "verify_theorem", fail)
        code, out, err = run(capsys, "verify-family", "--n-min", "22", "--n-max", "64")
        assert code == 2 and out == ""
        assert "64 exceeds 63" in err

    def test_twin_free_ideal_past_the_quotient_cap(self, capsys, tmp_path):
        # the 25-vertex path has no twins, so 2^25 representatives to test
        path = tmp_path / "path25.ideal"
        path.write_text(Ideal.from_supports([[i, i + 1] for i in range(1, 25)], 25).to_text())
        for command in ("depth", "gprofile"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, "")
            assert "33554432 orbit representatives" in err

    @pytest.mark.parametrize("command", ("depth", "gprofile"))
    def test_blow_up_with_a_complex_past_24_vertices(self, capsys, tmp_path, command):
        # x4 of (x1x4x5, x2x4x7, x3x6x7, x5x6x7) blown up to 20 twins: 26
        # variables.  No generator holds two twins, so the depth report
        # collapses them and gets pd = max of i + 19 [x4 in sigma] over the
        # core's table.  In the square each product holds two twins: the
        # g profile needs a complex on all 26, refused, not killed for memory
        core = Ideal.from_supports([[1, 4, 5], [2, 4, 7], [3, 6, 7], [5, 6, 7]], 7)
        twins = (4, *range(8, 27))
        gens = [[1, 5, v] for v in twins] + [[2, 7, v] for v in twins] + [[3, 6, 7], [5, 6, 7]]
        ideal = Ideal.from_supports(gens, 26)
        assert ideal.twin_classes() == [twins]
        path = tmp_path / "blow-up.ideal"
        path.write_text(ideal.to_text())
        code, out, err = run(capsys, command, str(path))
        if command == "depth":
            pd = max(i + 19 * (sigma >> 3 & 1) for i, sigma, _ in betti_table(core).entries)
            report = json.loads(out)
            assert code == 0 and (report["proj_dim"], report["depth"]) == (pd, 26 - pd) == (22, 4)
        else:
            assert (code, out) == (2, "")
            assert "complex on" in err and "26 vertices" in err

    def test_bad_characteristic(self, capsys, family6_file):
        code, _, err = run(capsys, "depth", family6_file, "--char", "4")
        assert code == 2 and "prime" in err

    def test_characteristic_too_large_for_exact_ranks(self, capsys, tmp_path):
        # 4294967311 is prime; int64 elimination used to report depth 4 here.
        # 2^89 - 1 is prime too, but above the certified primality range.
        path = tmp_path / "family7.ideal"
        path.write_text(build_family(7).to_text())
        code, out, _ = run(capsys, "depth", str(path), "--char", "4294967311")
        assert code == 0 and json.loads(out)["depth"] == 3
        code, out, _ = run(capsys, "gprofile", str(path), "--char", "4294967311")
        assert code == 0 and [r["depth"] for r in json.loads(out)["profile"]] == [3, 6]
        for command in ("depth", "gprofile"):
            code, out, err = run(capsys, command, str(path), "--char", str(2**89 - 1))
            assert code == 2 and out == "" and "too large" in err


class TestParsers:
    """``main`` builds only the invoked command's parser; it says what the full one says."""

    @staticmethod
    def outcome(capsys, parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_and_usage_errors_match_the_full_parser(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in ([command, "--help"], [command, "--no-such-flag"], [command, "x", "y", "z"]):
            full = self.outcome(capsys, cli.build_parser(), argv)
            alone = self.outcome(capsys, cli.build_parser(command), argv)
            assert alone == full, argv
            assert full[0] in (0, 2) and (full[1] or full[2])

    def test_main_builds_the_invoked_command_only(self, capsys, monkeypatch):
        built = []
        commands = {
            name: (help_text, lambda p, add=add, name=name: built.append(name) or add(p))
            for name, (help_text, add) in cli._COMMANDS.items()
        }
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        assert run(capsys, "family", "--n", "6")[0] == 0
        assert built == ["family"]
        built.clear()
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert built == list(commands)


class TestPastTheSweep:
    """The twin quotient takes the family to n = 63, the most variables an ideal has."""

    @pytest.mark.parametrize("p", ("2", "3"))
    def test_verify_family_to_63(self, capsys, p):
        code, out, _ = run(capsys, "verify-family", "--n-min", "6", "--n-max", "63", "--char", p)
        reports = json.loads(out)
        assert code == 0 and [r["n"] for r in reports] == list(range(6, 64))
        assert all(r["g2"] == r["n"] - 6 for r in reports)

    def test_depth_of_family_63_at_both_primes(self, capsys, tmp_path):
        path = tmp_path / "family63.ideal"
        path.write_text(build_family(63).to_text())
        code, out, _ = run(capsys, "depth", str(path), "--both-primes")
        report = json.loads(out)
        assert code == 0 and (report["depth"], report["proj_dim"]) == (3, 60)
        assert not report["field_sensitive"]


class TestThreadsEnv:
    SEARCH = ["search", "--ambient-n", "6", "--seed", "3", "--samples", "12", "--gen-count", "4"]

    def test_env_fallback_keeps_output_stable(self, capsys, monkeypatch):
        monkeypatch.delenv("SQFD_THREADS", raising=False)
        _, baseline, _ = run(capsys, *self.SEARCH)
        monkeypatch.setenv("SQFD_THREADS", "3")
        _, with_env, _ = run(capsys, *self.SEARCH)
        assert with_env == baseline

    def test_bad_thread_counts_refused(self, capsys, monkeypatch):
        monkeypatch.delenv("SQFD_THREADS", raising=False)
        _, baseline, _ = run(capsys, *self.SEARCH)
        # every thread count is refused now, good or bad
        for count in ("0", "-2", "1"):
            with pytest.raises(SystemExit) as exc:
                main(self.SEARCH + ["--threads", count])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --threads" in captured.err
        # SQFD_THREADS is no longer read, so a bad value changes nothing
        for env in ("abc", "0", "-1", "2.5"):
            monkeypatch.setenv("SQFD_THREADS", env)
            code, out, err = run(capsys, *self.SEARCH)
            assert code == 0 and out == baseline
            assert "SQFD_THREADS" not in err

    def test_table_commands_take_no_thread_count(self, capsys, family6_file, monkeypatch):
        monkeypatch.setenv("SQFD_THREADS", "abc")
        for command in ("depth", "betti"):
            code, out, _ = run(capsys, command, family6_file)
            assert code == 0 and json.loads(out)["depth"] == 3
            with pytest.raises(SystemExit) as exc:
                main([command, family6_file, "--threads", "2"])
            assert exc.value.code == 2

    def test_no_command_takes_a_thread_count(self, capsys, tmp_path, family6_file):
        graph = tmp_path / "p3.graph"
        graph.write_text("v=3\n1 2\n2 3\n")
        commands = [
            ["depth", family6_file],
            ["betti", family6_file],
            ["power", family6_file, "-k", "2"],
            ["gprofile", family6_file],
            ["minimal-primes", family6_file],
            ["family", "--n", "6"],
            ["verify-family", "--n-min", "6", "--n-max", "6"],
            ["graph-depth", str(graph)],
            ["search", "--ambient-n", "6", "--seed", "3", "--samples", "12", "--gen-count", "4"],
        ]
        for argv in commands:
            code, _, _ = run(capsys, *argv)
            assert code == 0, argv
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "2"])
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --threads" in capsys.readouterr().err
