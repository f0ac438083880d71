import hashlib
import json
import random
import subprocess
import sys

import pytest

from cechstrat import PointConfig, cech_filtration, cech_path
from cechstrat.cli import main
from cechstrat.paths import reversed_path

#: sha256 of the ``track --as-filtration`` output of the growth paths of
#: ``growth_configs()``, each forward then reversed, concatenated
GROWTH_TRACK_SHA256 = "6e24c11a75bec5e10e5e9a5e4cdddc95e627e5c586aa4540c6545df9ead11a3b"


@pytest.fixture
def two_points_file(tmp_path):
    f = tmp_path / "two_points.json"
    f.write_text(json.dumps({"dim": 1, "points": [[0.0], [1.0]]}))
    return str(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_reports_counts_and_writes_files(self, capsys, tmp_path):
        dot = tmp_path / "hasse.dot"
        blob = tmp_path / "universe.json"
        code, out, _ = run_cli(
            capsys, "enumerate", "--max-vertices", "3",
            "--dot", str(dot), "--json", str(blob),
        )
        assert code == 0
        assert "classes: 8" in out
        assert "cover_edges: 8" in out
        text = dot.read_text()
        assert text.startswith("digraph") and text.count("->") == 8
        data = json.loads(blob.read_text())
        assert data["n_max"] == 3 and len(data["classes"]) == 8
        assert len(data["relation"]) == 8

    def test_cap_violation_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--max-vertices", "7")
        assert code == 2
        assert "cap" in err


class TestCech:
    def test_two_points_small_radius(self, capsys, two_points_file):
        code, out, _ = run_cli(
            capsys, "cech", "--points", two_points_file, "--radius", "0.4"
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_vertices"] == 2
        assert data["simplices"] == [[0], [1]]

    def test_edge_at_critical_radius(self, capsys, two_points_file):
        code, out, _ = run_cli(
            capsys, "cech", "--points", two_points_file, "--radius", "0.5"
        )
        assert json.loads(out)["simplices"] == [[0], [1], [0, 1]]

    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "cech", "--points", str(bad), "--radius", "0.4")
        assert code == 2
        assert "malformed JSON" in err

    def test_invalid_config_is_exit_2(self, capsys, tmp_path):
        dupe = tmp_path / "dupe.json"
        dupe.write_text(json.dumps({"dim": 1, "points": [[0.0], [0.0]]}))
        code, _, err = run_cli(capsys, "cech", "--points", str(dupe), "--radius", "0.4")
        assert code == 2
        assert "dedupe" in err

    def test_negative_max_dim_is_exit_2(self, capsys, two_points_file):
        code, out, err = run_cli(
            capsys, "cech", "--points", two_points_file, "--radius", "0.4", "--max-dim", "-1"
        )
        assert (code, out) == (2, "")
        assert err == "error: max_dim must be >= 0\n"

    def test_more_than_16_points_is_exit_2(self, capsys, tmp_path):
        many = tmp_path / "many.json"
        many.write_text(json.dumps({"dim": 1, "points": [[float(i)] for i in range(65)]}))
        code, out, err = run_cli(
            capsys, "cech", "--points", str(many), "--radius", "0.1", "--max-dim", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: subset scan limited to 16 points, got 65\n"


class TestFiltration:
    def test_round_trip(self, capsys, two_points_file):
        code, out, _ = run_cli(capsys, "filtration", "--points", two_points_file)
        assert code == 0
        data = json.loads(out)
        assert data["critical_radii"] == [0.0, 0.5]
        assert len(data["complexes"]) == 2


class TestDominates:
    def test_witness(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"n_vertices": 2, "simplices": [[0], [1]]}))
        b.write_text(json.dumps({"n_vertices": 2, "simplices": [[0], [1], [0, 1]]}))
        code, out, _ = run_cli(capsys, "dominates", "--a", str(a), "--b", str(b))
        assert code == 0
        data = json.loads(out)
        assert sorted(data["vertex_map"]) == [0, 1]

    def test_none(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"n_vertices": 2, "simplices": [[0], [1], [0, 1]]}))
        b.write_text(json.dumps({"n_vertices": 2, "simplices": [[0], [1]]}))
        code, out, _ = run_cli(capsys, "dominates", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.strip() == "none"


class TestStratum:
    def test_boundary_pair(self, capsys, two_points_file):
        code, out, _ = run_cli(
            capsys, "stratum", "--points", two_points_file, "--radius", "0.5"
        )
        assert code == 0
        data = json.loads(out)
        assert data["degenerate"] is True
        assert data["degenerate_subsets"] == [[0, 1]]
        assert data["case"] == "boundary"
        assert data["safe_radius"] == pytest.approx(0.25)

    def test_infinite_radius_is_exit_2(self, capsys, tmp_path):
        # one point: tilde_r would give a safe radius of inf/4, which JSON cannot hold
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"dim": 1, "points": [[0.0]]}))
        for verb in ("stratum", "cech"):
            code, out, err = run_cli(capsys, verb, "--points", str(one), "--radius", "inf")
            assert (code, out) == (2, "")
            assert "radius must be finite, got inf" in err


class TestTrack:
    def test_zigzag_output(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "breakpoints": [0.0, 1.0],
                    "tracks": [[[0.0], [0.0]], [[1.0], [1.0]]],
                    "radius": [0.0, 1.0],
                }
            )
        )
        out_file = tmp_path / "zigzag.json"
        code, _, _ = run_cli(
            capsys, "track", "--path", str(path_file),
            "--resolution", "0.01", "--out", str(out_file), "--as-filtration",
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len(data["times"]) == 1
        assert data["times"][0] == pytest.approx(0.5, abs=1e-5)
        assert len(data["interval_classes"]) == 2
        assert data["filtration"] is not None
        assert len(data["filtration"]["classes"]) == 2

    def test_non_finite_radius_is_exit_2(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(
            '{"dim": 1, "breakpoints": [0.0, 1.0], '
            '"tracks": [[[0.0], [0.0]], [[1.0], [1.0]]], "radius": [0.0, NaN]}'
        )
        code, _, err = run_cli(
            capsys, "track", "--path", str(path_file), "--resolution", "0.01"
        )
        assert code == 2
        assert "radius nan is not finite" in err

    def test_nan_resolution_is_exit_2(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({
            "dim": 1, "breakpoints": [0.0, 1.0],
            "tracks": [[[0.0], [0.0]], [[1.0], [1.0]]], "radius": [0.0, 1.0],
        }))
        code, out, err = run_cli(
            capsys, "track", "--path", str(path_file), "--resolution", "nan"
        )
        assert (code, out) == (2, "")
        assert err == "error: resolution must be positive\n"
        code, out, err = run_cli(
            capsys, "track", "--path", str(path_file), "--resolution", "5e-324"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: resolution must be at least 1e-13, ")
        code, out, _ = run_cli(
            capsys, "track", "--path", str(path_file), "--resolution", "inf"
        )
        assert code == 0 and len(json.loads(out)["times"]) == 1

    def test_no_tracks_is_exit_2(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({
            "dim": 1, "breakpoints": [0.0, 1.0], "tracks": [], "radius": [0.0, 1.0],
        }))
        code, out, err = run_cli(
            capsys, "track", "--path", str(path_file), "--resolution", "0.01"
        )
        assert (code, out) == (2, "")
        assert err == "error: at least one track is required\n"

    @pytest.mark.parametrize("dim", [0, 17])
    def test_dim_out_of_range_is_exit_2(self, capsys, tmp_path, dim):
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({
            "dim": dim, "breakpoints": [0.0, 1.0],
            "tracks": [[[0.0] * dim, [0.0] * dim]], "radius": [0.0, 1.0],
        }))
        code, out, err = run_cli(
            capsys, "track", "--path", str(path_file), "--resolution", "0.01"
        )
        assert code == 2 and out == ""
        assert f"dim must be in 1..16, got {dim}" in err


#: one valid document per input format, each with the command that reads it
PATH_DOC = {"dim": 1, "breakpoints": [0.0, 1.0],
            "tracks": [[[0.0], [0.0]], [[1.0], [1.0]]], "radius": [0.0, 1.0]}
COMPLEX_DOC = {"n_vertices": 2, "simplices": [[0, 1]]}
POINTS_DOC = {"dim": 1, "points": [[0.0], [1.0]]}


def run_reader(capsys, tmp_path, verb, document):
    """Runs ``verb`` on ``document`` as its one JSON input (both inputs of
    ``dominates``); returns the exit code, stdout and stderr."""
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(document))
    argv = {
        "cech": ("--points", str(f), "--radius", "0.1"),
        "filtration": ("--points", str(f)),
        "stratum": ("--points", str(f), "--radius", "0.1"),
        "dominates": ("--a", str(f), "--b", str(f)),
        "track": ("--path", str(f), "--resolution", "0.01"),
    }[verb]
    return run_cli(capsys, verb, *argv)


#: (command, format named in the message, a valid document, its fields)
READERS = [
    ("cech", "point-configuration JSON", POINTS_DOC, ("dim", "points")),
    ("filtration", "point-configuration JSON", POINTS_DOC, ("dim", "points")),
    ("stratum", "point-configuration JSON", POINTS_DOC, ("dim", "points")),
    ("dominates", "complex JSON", COMPLEX_DOC, ("n_vertices", "simplices")),
    ("track", "path JSON", PATH_DOC, ("dim", "breakpoints", "tracks", "radius")),
]


class TestMalformedDocuments:
    """A JSON document of the wrong shape or with a mistyped field is a
    validation error (exit 2, nothing on stdout) naming its format and the
    field, never a traceback or a silent coercion."""

    @pytest.mark.parametrize("verb,fmt,doc,fields", READERS)
    def test_valid_document_is_read(self, capsys, tmp_path, verb, fmt, doc, fields):
        code, out, err = run_reader(capsys, tmp_path, verb, doc)
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("verb,fmt,doc,fields", READERS)
    @pytest.mark.parametrize("document", [[1, 2], "text", 3])
    def test_non_object_is_exit_2(self, capsys, tmp_path, verb, fmt, doc, fields, document):
        code, out, err = run_reader(capsys, tmp_path, verb, document)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {fmt} must be an object") and err.endswith("\n")

    @pytest.mark.parametrize("verb,fmt,doc,fields", READERS)
    def test_missing_field_is_exit_2(self, capsys, tmp_path, verb, fmt, doc, fields):
        code, out, err = run_reader(capsys, tmp_path, verb, {})
        assert (code, out) == (2, "")
        assert err == f"error: {fmt} is missing the field {fields[0]!r}\n"
        for field in fields:
            partial = {k: v for k, v in doc.items() if k != field}
            code, out, err = run_reader(capsys, tmp_path, verb, partial)
            assert (code, out) == (2, "")
            assert err == f"error: {fmt} is missing the field {field!r}\n"

    @pytest.mark.parametrize("verb,field,value,message", [
        ("cech", "dim", 1.5, '"dim" must be an integer, got 1.5'),
        ("cech", "dim", True, '"dim" must be an integer, got True'),
        ("cech", "dim", "1", "\"dim\" must be an integer, got '1'"),
        ("cech", "points", {"0": [0.0]}, '"points" must be an array'),
        ("cech", "points", [["0"], [1.0]], "a point must be an array of numbers, got ['0']"),
        ("cech", "points", [[0.0], 1.0], "a point must be an array of numbers, got 1.0"),
        ("cech", "points", [[False], [1.0]], "a point must be an array of numbers, got [False]"),
        ("filtration", "points", [[0.0], [None]], "a point must be an array of numbers, got [None]"),
        ("stratum", "dim", 1.0, '"dim" must be an integer, got 1.0'),
        ("dominates", "n_vertices", 2.9, '"n_vertices" must be an integer, got 2.9'),
        ("dominates", "n_vertices", True, '"n_vertices" must be an integer, got True'),
        ("dominates", "simplices", [[0, 1.7]], "a simplex must be an array of integers, got [0, 1.7]"),
        ("dominates", "simplices", [[0, True]], "a simplex must be an array of integers, got [0, True]"),
        ("dominates", "simplices", [["0", 1]], "a simplex must be an array of integers, got ['0', 1]"),
        ("dominates", "simplices", [0, 1], "a simplex must be an array of integers, got 0"),
        ("dominates", "simplices", "01", '"simplices" must be an array'),
        ("track", "dim", 1.5, '"dim" must be an integer, got 1.5'),
        ("track", "breakpoints", ["0", 1.0], "\"breakpoints\" must be an array of numbers, got ['0', 1.0]"),
        ("track", "radius", [0.0, "0.1"], "\"radius\" must be an array of numbers, got [0.0, '0.1']"),
        ("track", "tracks", {"a": 1}, '"tracks" must be an array'),
        ("track", "tracks", [[[0.0], ["1"]]], "a waypoint must be an array of numbers, got ['1']"),
        ("track", "tracks", [[0.0, 1.0]], "a waypoint must be an array of numbers, got 0.0"),
        ("track", "tracks", [0.0], "a track must be an array"),
    ])
    def test_mistyped_field_is_exit_2(self, capsys, tmp_path, verb, field, value, message):
        fmt, doc = next((fmt, doc) for v, fmt, doc, _ in READERS if v == verb)
        code, out, err = run_reader(capsys, tmp_path, verb, {**doc, field: value})
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {fmt}: {message}"), err

    def test_negative_vertex_is_out_of_range(self, capsys, tmp_path):
        code, out, err = run_reader(capsys, tmp_path, "dominates",
                                    {"n_vertices": 2, "simplices": [[-1, 0]]})
        assert (code, out) == (2, "")
        assert err == "error: generator [-1, 0] has a vertex outside 0..1\n"

    def test_more_vertices_than_a_family_holds_is_refused(self, capsys, tmp_path):
        # a complex's family bitset has 2^n bits: 17 vertices are refused
        # before anything of that size is built
        code, out, err = run_reader(capsys, tmp_path, "dominates",
                                    {"n_vertices": 17, "simplices": []})
        assert (code, out) == (2, "")
        assert err == "error: a complex has at most 16 vertices, got 17\n"

    def test_integral_numbers_are_coordinates(self, capsys, tmp_path):
        # a JSON integer is a number: 1 and 1.0 read alike as coordinates and radii
        floats = run_reader(capsys, tmp_path, "track", PATH_DOC)
        ints = run_reader(capsys, tmp_path, "track", {
            "dim": 1, "breakpoints": [0, 1], "tracks": [[[0], [0]], [[1], [1]]], "radius": [0, 1]})
        assert ints == floats and ints[0] == 0


class TestFrontierDemo:
    def test_violated_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "frontier-demo", "--samples", "800", "--seed", "3")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "violated"
        assert "boundary" in data["witnesses"] and "interior" in data["witnesses"]

    def test_refined_satisfied(self, capsys):
        code, out, _ = run_cli(
            capsys, "frontier-demo", "--samples", "800", "--seed", "3", "--refined"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "satisfied-at-budget"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_is_exit_2(self, capsys, samples):
        code, out, err = run_cli(capsys, "frontier-demo", "--samples", samples)
        assert (code, out) == (2, "")
        assert err == f"error: n_samples must be >= 1, got {samples}\n"


class TestOptions:
    VERBS = ("enumerate", "cech", "filtration", "dominates", "stratum", "track",
             "frontier-demo")

    def test_only_frontier_demo_takes_a_seed(self, capsys):
        for verb in self.VERBS:
            with pytest.raises(SystemExit) as exc:
                main([verb, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for flag in ("--eps-geo", "--cap", "--probe-radius"):
                assert flag not in text, (verb, flag)
            assert ("--seed" in text) == (verb == "frontier-demo"), verb

    def test_only_cech_and_filtration_take_max_dim(self, capsys, two_points_file, tmp_path):
        for verb in self.VERBS:
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            assert ("--max-dim" in capsys.readouterr().out) == (verb in ("cech", "filtration"))
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({"dim": 1, "breakpoints": [0.0, 1.0],
                                         "tracks": [[[0.0], [0.0]], [[1.0], [1.0]]],
                                         "radius": [0.0, 1.0]}))
        for argv in (["stratum", "--points", two_points_file, "--radius", "0.4"],
                     ["track", "--path", str(path_file), "--resolution", "0.01"]):
            assert run_cli(capsys, *argv)[0] == 0
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--max-dim", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --max-dim 1" in capsys.readouterr().err

    def test_seed_variable_is_read_by_frontier_demo_only(self, capsys, monkeypatch,
                                                         two_points_file):
        monkeypatch.setenv("CECHSTRAT_SEED", "abc")
        code, out, _ = run_cli(capsys, "cech", "--points", two_points_file, "--radius", "0.4")
        assert code == 0
        assert json.loads(out)["n_vertices"] == 2

    def test_invalid_seed_variable_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CECHSTRAT_SEED", "abc")
        code, out, err = run_cli(capsys, "frontier-demo", "--samples", "50")
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid CECHSTRAT_SEED='abc'")

    def test_seed_flag_wins_over_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CECHSTRAT_SEED", "abc")
        code, out, _ = run_cli(capsys, "frontier-demo", "--samples", "50", "--seed", "4")
        assert code in (0, 3)
        params = json.loads(out)["params"]
        assert params["seed"] == 4 and params["probe_radius"] == 0.05


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, two_points_file):
        _, out1, _ = run_cli(capsys, "filtration", "--points", two_points_file)
        _, out2, _ = run_cli(capsys, "filtration", "--points", two_points_file)
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "frontier-demo", "--samples", "300", "--seed", "9")
        _, out4, _ = run_cli(capsys, "frontier-demo", "--samples", "300", "--seed", "9")
        assert out3 == out4

    def test_emitted_json_reparses(self, capsys, two_points_file):
        _, out, _ = run_cli(capsys, "filtration", "--points", two_points_file)
        from cechstrat import Filtration

        restored = Filtration.from_json_dict(json.loads(out))
        assert restored.critical_radii == (0.0, 0.5)


def growth_configs(seed=6066, count=5):
    """The criterion-6 generator: 2-5 points in the unit square whose
    critical radii are at least 1e-3 apart."""
    rng, configs = random.Random(seed), []
    while len(configs) < count:
        pts = tuple((rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(rng.randint(2, 5)))
        try:
            cfg = PointConfig(2, pts)
        except ValueError:
            continue
        radii = cech_filtration(cfg).critical_radii
        if all(b - a >= 1e-3 for a, b in zip(radii, radii[1:])):
            configs.append(cfg)
    return configs


class TestGrowthGolden:
    def test_track_output_bytes(self, capsys, tmp_path):
        # pins every output byte of growth-path zigzags, both directions
        path_file = tmp_path / "path.json"
        digest = hashlib.sha256()
        for cfg in growth_configs():
            forward = cech_path(cfg, 0.9)
            for path in (forward, reversed_path(forward)):
                path_file.write_text(json.dumps(path.to_json_dict()))
                code, out, _ = run_cli(capsys, "track", "--path", str(path_file),
                                       "--resolution", "0.01", "--as-filtration")
                assert code == 0
                assert json.loads(out)["filtration"] is not None
                digest.update(out.encode())
        assert digest.hexdigest() == GROWTH_TRACK_SHA256


class TestSubprocessEntry:
    def test_module_invocation(self, two_points_file):
        proc = subprocess.run(
            [sys.executable, "-m", "cechstrat", "cech",
             "--points", two_points_file, "--radius", "0.4"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_vertices"] == 2

    def test_env_seed_mirror(self, two_points_file):
        import os

        env = dict(os.environ, CECHSTRAT_SEED="7")
        proc = subprocess.run(
            [sys.executable, "-m", "cechstrat", "frontier-demo", "--samples", "200"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode in (0, 3)
        assert json.loads(proc.stdout)["params"]["seed"] == 7
