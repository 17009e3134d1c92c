import csv
import json
import os
import stat
import warnings

import numpy as np
import pytest

from vqalab import logdim_vqa_instance
from vqalab.cli import build_parser, main
from vqalab.families import FAMILIES
from vqalab.serialize import (
    SCHEMA,
    dump_json,
    graph_to_json,
    instance_to_json,
)


def matrix_from_json(data: list) -> np.ndarray:
    """Inverse of `dump_json` on a complex matrix, read back by `json.loads`:
    nested [re, im] pairs to a complex array."""
    return np.array([[complex(re, im) for re, im in row] for row in data])


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3\n1 2\n2 3\n1 3\n")
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("2\n1 2\n")
    return str(path)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


class TestSerialize:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(matrix_from_json(json.loads(dump_json(m))), m)

    def test_graph_edges_one_indexed(self, k3):
        doc = graph_to_json(k3)
        assert doc["d"] == 3
        assert [1, 2] in doc["edges"]
        assert all(1 <= u <= 3 and 1 <= v <= 3 for u, v in doc["edges"])

    def test_instance_kinds(self, k3):
        kinds = {"oracular": "vqa", "boosted": "vqa", "logdim": "vqa", "single-layer": "vqa",
                 "qaoa1": "qaoa", "qaoa-multi": "qaoa", "fermion": "fermion"}
        assert set(kinds) == set(FAMILIES)
        for family, kind in kinds.items():
            args = build_parser().parse_args(["export", "--family", family])
            assert instance_to_json(FAMILIES[family].build(k3, args))["kind"] == kind

    def test_dump_is_json(self, k3):
        text = dump_json(instance_to_json(logdim_vqa_instance(k3)))
        doc = json.loads(text)
        assert doc["schema"] == SCHEMA
        reconstructed = matrix_from_json(doc["observable"])
        assert np.array_equal(reconstructed, logdim_vqa_instance(k3).observable.to_dense())


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "family", ["oracular", "logdim", "boosted", "fermion", "qaoa-multi"]
    )
    def test_families_pass_on_k3(self, family, k3_file, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            [
                "verify", "--family", family, "--graph", k3_file,
                "--samples", "10", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert doc["schema"] == SCHEMA
        for rec in doc["instances"]:
            assert all(r <= 1e-9 for r in rec["max_residuals"].values())

    def test_qaoa1_passes_on_edge(self, edge_file, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            [
                "verify", "--family", "qaoa1", "--graph", edge_file,
                "--m", "16", "--samples", "10", "--out", str(out),
            ]
        )
        assert rc == 0

    def test_random_graph_batch(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(
            [
                "verify", "--family", "logdim", "--random-graph", "5:0.5",
                "--instances", "3", "--samples", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(json.loads(out.read_text())["instances"]) == 3

    def test_impossible_tolerance_fails(self, k3_file, tmp_path):
        rc = main(
            [
                "verify", "--family", "logdim", "--graph", k3_file,
                "--samples", "5", "--tol", "0", "--out", str(tmp_path / "v.json"),
            ]
        )
        assert rc == 1


class TestOptimizeCommand:
    def test_oracular_k3_reaches_reference(self, k3_file, tmp_path):
        out = tmp_path / "o.json"
        rc = main(
            [
                "optimize", "--family", "oracular", "--graph", k3_file,
                "--restarts", "10", "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        rec = doc["instances"][0]
        assert rec["maxcut"] == 2
        assert rec["best_value"] == pytest.approx(-2.0, abs=1e-6)
        assert rec["delta_m"] == pytest.approx(0.0, abs=1e-9)
        assert 0 <= doc["aggregate_delta"] <= 1
        assert doc["reference_constants"]["greedy_ratio"] == 0.5

    def test_deterministic_modulo_timestamp(self, k3_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                [
                    "optimize", "--family", "logdim", "--graph", k3_file,
                    "--restarts", "3", "--seed", "5", "--out", str(out),
                ]
            )
            assert rc == 0
            doc = json.loads(out.read_text())
            del doc["timestamp"]
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_metrics_in_range(self, tmp_path):
        out = tmp_path / "o.json"
        rc = main(
            [
                "optimize", "--family", "logdim", "--random-graph", "5:0.5",
                "--instances", "2", "--restarts", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        for rec in json.loads(out.read_text())["instances"]:
            for key in ("delta", "delta_m", "delta_o"):
                assert -1e-9 <= rec[key] <= 1 + 1e-9
            assert rec["delta"] == pytest.approx(rec["delta_m"] + rec["delta_o"])


class TestLandscapeCommand:
    def test_single_axis_csv_shape(self, edge_file, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(
            [
                "landscape", "--family", "oracular", "--graph", edge_file,
                "--axis", "0:0:6.283185:25", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["param_0", "value"]
        assert len(rows) == 26

    def test_two_axis_grid_minima(self, edge_file, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(
            [
                "landscape", "--family", "oracular", "--graph", edge_file,
                "--axis", "0:0:6.28318530718:33", "--axis", "1:0:6.28318530718:33",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert len(rows) == 33 * 33
        vals = {(float(a), float(b)): float(v) for a, b, v in rows}
        best = min(vals.values())
        assert best == pytest.approx(-1.0, abs=1e-9)
        argmin = [p for p, v in vals.items() if v == best]
        for a, b in argmin:
            # antipodal phase pairs (0, pi) / (pi, 0) up to the grid step
            assert abs(abs(a - b) - np.pi) <= 1e-6

    def test_fixed_parameter(self, k3_file, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(
            [
                "landscape", "--family", "oracular", "--graph", k3_file,
                "--axis", "0:0:6.28:11", "--fixed", "1=3.14159265",
                "--out", str(out),
            ]
        )
        assert rc == 0

    def test_repeated_calls_share_no_append_state(self, k3_file, capsys):
        # one parser serves every call in a process: --axis and --fixed must not carry over
        first = ["landscape", "--family", "oracular", "--graph", k3_file,
                 "--axis", "0:0:3:4", "--axis", "1:0:3:3", "--fixed", "2=1.5"]
        second = ["landscape", "--family", "oracular", "--graph", k3_file, "--axis", "0:0:1:5"]
        alone = []
        for argv in (first, second):
            args = build_parser.__wrapped__().parse_args(argv)
            assert args.func(args) == 0
            alone.append(capsys.readouterr().out)
        for argv, expected in zip((first, second, first, second), alone * 2):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected

    def test_missing_axis_is_usage_error(self, k3_file):
        assert main(["landscape", "--family", "oracular", "--graph", k3_file]) == 2

    def test_axis_out_of_range(self, k3_file, tmp_path):
        rc = main(
            [
                "landscape", "--family", "oracular", "--graph", k3_file,
                "--axis", "7:0:1:5", "--out", str(tmp_path / "l.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--axis=-1:0:1:5"], "axis index -1 outside 0..2"),
            (["--axis", "0:0:1:5", "--fixed=-1=0.5"], "fixed index -1 outside 0..2"),
            (["--axis", "0:0:1:5", "--fixed", "3=0.5"], "fixed index 3 outside 0..2"),
        ],
    )
    def test_index_outside_parameters_is_usage_error(self, k3_file, flags, message, capsys):
        rc = main(["landscape", "--family", "oracular", "--graph", k3_file, *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_axis_count_below_one_is_usage_error(self, edge_file, count, capsys):
        rc = main(["landscape", "--family", "oracular", "--graph", edge_file, "--axis", f"0:0:1:{count}"])
        assert rc == 2
        assert "--axis COUNT" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["qaoa-multi", "oracular"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--axis", "0:0:nan:3"],
            ["--axis", "0:-inf:1:3"],
            ["--axis", "0:0:1:3", "--fixed", "1=nan"],
            ["--axis", "0:0:1:3", "--fixed", "1=inf"],
        ],
    )
    def test_non_finite_axis_or_fixed_is_usage_error(self, family, flags, capsys):
        rc = main(["landscape", "--family", family, "--random-graph", "2:1.0", *flags])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["qaoa-multi", "oracular"])
    @pytest.mark.parametrize("axis", ["1:-1e308:1e308:3", "1:-1e308:1e308:1", "0:-1.7e308:1.7e308:2"])
    def test_overflowing_axis_span_is_usage_error(self, family, axis, capsys):
        # finite ends, but np.linspace yields infinite or NaN points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["landscape", "--family", family, "--random-graph", "2:1.0", "--axis", "0:0:1:2", "--axis", axis])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--axis grid points must be finite" in captured.err

    def test_non_finite_value_fails(self, capsys):
        # with m = 2 the phase E_1 * t = pi * t overflows at t = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["landscape", "--family", "single-layer", "--m", "2", "--random-graph", "3:1.0",
                       "--axis", "0:0:1e308:2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["param_0,value", "0,0"]
        assert "non-finite objective value nan at (1e+308)" in captured.err


class TestExportCommand:
    def test_export_schema_and_round_trip(self, k3_file, tmp_path, k3):
        out = tmp_path / "e.json"
        rc = main(["export", "--family", "logdim", "--graph", k3_file, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["kind"] == "vqa"
        assert doc["graph"]["d"] == 3
        obs = matrix_from_json(doc["observable"])
        assert np.array_equal(obs, logdim_vqa_instance(k3).observable.to_dense())


OUT_COMMANDS = {
    "export": ["export", "--family", "boosted", "--k", "2", "--graph"],
    "verify": ["verify", "--family", "logdim", "--samples", "3", "--graph"],
    "optimize": ["optimize", "--family", "logdim", "--restarts", "2", "--graph"],
    "landscape": ["landscape", "--family", "oracular", "--axis", "0:0:3:7", "--graph"],
}


def without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith('  "timestamp": '))


class TestOutFile:
    """`--out` rewrites the file in place: same bytes as stdout, the path's
    symlink and mode kept, non-regular targets written without a cut."""

    def stdout_and_file(self, command, k3_file, out, capsys) -> tuple[str, str]:
        """What the command prints, and the file's bytes as text (line ends kept)."""
        argv = OUT_COMMANDS[command] + [k3_file]
        assert main(argv) == 0
        # print() adds the newline the file gets after a JSON document
        expected = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        written = out.read_bytes().decode()
        if command == "optimize":
            return without_timestamp(expected), without_timestamp(written)
        return expected, written

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_longer_file_is_cut_to_the_output(self, command, k3_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_bytes(b"stale bytes\n" * 100_000)
        expected, written = self.stdout_and_file(command, k3_file, out, capsys)
        assert written == expected

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_symlink_stays_and_target_gets_the_bytes(self, command, k3_file, tmp_path, capsys):
        target = tmp_path / "target"
        target.write_bytes(b"x" * 1_000_000)
        out = tmp_path / "link"
        out.symlink_to(target)
        expected, written = self.stdout_and_file(command, k3_file, out, capsys)
        assert out.is_symlink() and out.resolve() == target.resolve()
        assert written == expected

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_existing_mode_is_kept(self, command, k3_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_bytes(b"x" * 1_000_000)
        out.chmod(0o600)
        self.stdout_and_file(command, k3_file, out, capsys)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_dev_null(self, command, k3_file, capsys):
        assert main(OUT_COMMANDS[command] + [k3_file, "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_open_never_truncates(self, command, k3_file, tmp_path, monkeypatch):
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert main(OUT_COMMANDS[command] + [k3_file, "--out", str(tmp_path / "out")]) == 0
        assert flags and not any(flag & os.O_TRUNC for flag in flags)

    def test_failed_landscape_keeps_the_rows_written(self, tmp_path, capsys):
        # with m = 2 the phase E_1 * t = pi * t overflows at the third point, t = 1e308
        argv = ["landscape", "--family", "single-layer", "--m", "2", "--random-graph", "3:1.0",
                "--axis", "0:0:1e308:3"]
        assert main(argv) == 1
        rows = capsys.readouterr().out
        assert rows.count("\n") == 3
        out = tmp_path / "l.csv"
        out.write_bytes(b"stale bytes\n" * 100_000)
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_bytes() == rows.encode()


class TestExitCodes:
    def test_missing_graph_source(self):
        assert main(["verify", "--family", "oracular"]) == 2

    def test_missing_file(self):
        assert main(["verify", "--family", "oracular", "--graph", "/no/such/file"]) == 2

    def test_malformed_graph(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 1\n")
        assert main(["verify", "--family", "oracular", "--graph", str(bad)]) == 2

    def test_bad_random_graph_spec(self):
        assert main(["verify", "--family", "oracular", "--random-graph", "oops"]) == 2

    @pytest.mark.parametrize("spec", ["0:0.5", "1:0.5"])
    def test_random_graph_needs_two_vertices(self, spec, capsys):
        assert main(["verify", "--family", "oracular", "--random-graph", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--random-graph d must be at least 2" in captured.err

    @pytest.mark.parametrize("spec", ["3:1.5", "3:-0.1", "3:nan", "3:inf"])
    def test_random_graph_probability_in_unit_interval(self, spec, capsys):
        assert main(["verify", "--family", "oracular", "--random-graph", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--random-graph p must be finite and in [0, 1]" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "x"])
    def test_tol_must_be_finite_and_non_negative(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "oracular", "--random-graph", "3:0.5", "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err

    def test_tol_zero_is_accepted(self, capsys):
        main(["verify", "--family", "oracular", "--random-graph", "3:0.5", "--samples", "2", "--tol", "0"])
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0

    @pytest.mark.parametrize("command", ["verify", "optimize", "landscape", "export"])
    @pytest.mark.parametrize("m", ["1", "0", "-2"])
    def test_base_m_must_be_at_least_two(self, command, m, capsys):
        argv = [command, "--family", "single-layer", "--random-graph", "3:1.0", "--m", m]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--m" in captured.err and "at least 2" in captured.err

    def test_invalid_parameter_value(self, k3_file):
        # m=4 makes the mixer energies leave (-1, 1), which is rejected
        assert main(["verify", "--family", "qaoa1", "--graph", k3_file, "--m", "4"]) == 1

    @pytest.mark.parametrize("command", ["verify", "export"])
    @pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
    def test_tau_must_be_finite_and_positive(self, command, tau, capsys):
        rc = main([command, "--family", "qaoa1", "--random-graph", "2:1.0", "--tau", tau])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coupling tau must be finite and positive" in captured.err

    @pytest.mark.parametrize("command", ["verify", "optimize", "export"])
    @pytest.mark.parametrize("tau", ["1e-320", "5e-324", "1e-308"])
    def test_tau_with_infinite_period_fails(self, command, tau, capsys):
        # 2*pi/tau overflows: the verify sampler and the grid reference need it
        rc = main([command, "--family", "qaoa1", "--random-graph", "2:1.0", "--tau", tau])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2*pi/tau and pi/(2*tau) must be finite" in captured.err

    def test_tau_with_finite_period_exports(self, capsys):
        assert main(["export", "--family", "qaoa1", "--random-graph", "2:1.0", "--tau", "1e-307"]) == 0

    @pytest.mark.parametrize("command", ["verify", "optimize", "landscape", "export"])
    @pytest.mark.parametrize("family", ["single-layer", "qaoa1"])
    @pytest.mark.parametrize("m", [10**110, 10**400], ids=["m^3-overflows", "m-overflows"])
    def test_base_m_too_large_fails(self, command, family, m, capsys):
        argv = [command, "--family", family, "--random-graph", "3:1.0", "--m", str(m)]
        if command == "landscape":
            argv += ["--axis", "0:0:1:2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "base m is too large: m^3 overflows a float" in captured.err

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "nope", "--random-graph", "3:0.5"])
        assert exc.value.code == 2
        assert "--family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("verify", "--samples"),
            ("verify", "--instances"),
            ("optimize", "--restarts"),
            ("optimize", "--grid-samples"),
            ("optimize", "--k"),
            ("verify", "--k"),
            ("export", "--k"),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_must_be_positive(self, command, flag, value, capsys):
        argv = [command, "--family", "single-layer", "--random-graph", "3:0.5", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "optimize", "landscape", "export"])
    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_seed_must_be_non_negative(self, command, value, capsys):
        argv = [command, "--family", "oracular", "--random-graph", "3:0.5", "--seed", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "non-negative integer" in err

    def test_seed_zero_is_accepted(self, capsys):
        assert main(["export", "--family", "oracular", "--random-graph", "3:0.5", "--seed", "0"]) == 0
