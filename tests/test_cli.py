"""End-to-end command-line behavior: exit codes, schemas, determinism."""
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from oimsim.cli import data_path

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "oimsim" / "schemas"
TRIANGLE = data_path("triangle.graph")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "oimsim", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """A CLI output parsed as strict JSON: ``NaN`` and ``Infinity`` refused,
    since json.loads would read them and jsonschema pass them as numbers."""
    return json.loads(text, parse_constant=_refuse)


def write_tiny_sweep_config(path: Path) -> Path:
    cfg = {
        "sweep": {"parameter": "sigma", "values": [0.01, 1.0], "seeds": [0, 1]},
        "integrator": {"t_end": 5.0},
    }
    path.write_text(json.dumps(cfg))
    return path


def write_tiny_compare_config(path: Path) -> Path:
    cfg = {
        "dynamics": {"injection_variant": "adler"},
        "integrator": {"t_end": 20.0},
        "compare": {"seeds": list(range(10))},
    }
    path.write_text(json.dumps(cfg))
    return path


class TestSolveCommand:
    def test_triangle_fixture(self):
        proc = run_cli("solve", TRIANGLE, "--quiet")
        assert proc.returncode == 0
        doc = strict_loads(proc.stdout)
        jsonschema.validate(doc, load_schema("solve_result.schema.json"))
        assert doc["cut"] == 2.0

    def test_malformed_file_names_line(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n1 3 1\n")
        proc = run_cli("solve", bad)
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_missing_graph(self, tmp_path, command):
        missing = tmp_path / "nope.graph"
        proc = run_cli(command, missing)
        assert proc.returncode == 2
        # the path and the OS error, and no line number: no line was read
        assert proc.stderr == (f"oimsim {command}: error: cannot read graph {missing}: "
                               f"[Errno 2] No such file or directory: '{missing}'\n")

    def test_graph_path_that_is_a_directory(self, tmp_path):
        proc = run_cli("oracle", tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"oimsim oracle: error: cannot read graph {tmp_path}: ")
        assert "line" not in proc.stderr

    def test_zero_attempts_is_usage_error(self):
        proc = run_cli("solve", TRIANGLE, "--attempts", "0")
        assert proc.returncode == 64

    def test_seed_flag_changes_attempt_stream(self):
        a = run_cli("solve", TRIANGLE, "--seed", "1", "--quiet")
        b = run_cli("solve", TRIANGLE, "--seed", "1", "--quiet")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestOracleCommand:
    def test_triangle(self):
        proc = run_cli("oracle", TRIANGLE)
        assert proc.returncode == 0
        doc = strict_loads(proc.stdout)
        jsonschema.validate(doc, load_schema("oracle_result.schema.json"))
        assert doc["max_cut"] == 2.0
        assert doc["degeneracy"] == 3

    def test_single_edge_positive_and_negative(self, tmp_path):
        pos = tmp_path / "pos.graph"
        pos.write_text("2 1\n1 2 1\n")
        neg = tmp_path / "neg.graph"
        neg.write_text("2 1\n1 2 -5\n")
        assert strict_loads(run_cli("oracle", pos).stdout)["max_cut"] == 1.0
        assert strict_loads(run_cli("oracle", neg).stdout)["max_cut"] == 0.0

    def test_all_negative_weights_give_a_zero_max_cut(self, tmp_path, capsys):
        # (W - E)/2 rounds to -4.4e-16 here; the cut of the returned spins is 0
        from oimsim import MaxCutInstance, cli, serialize_graph

        g = MaxCutInstance(6, (
            (0, 2, -0.2993584445257016), (0, 3, -0.924045801334008),
            (0, 5, -0.9945290784174783), (1, 3, -0.6964577900834426),
            (1, 4, -0.007084093150768744), (1, 5, -0.07983939034486709),
            (2, 4, -0.9443944441172547), (2, 5, -0.19684374954518957)))
        assert all(w < 0 for _, _, w in g.edges)
        path = tmp_path / "g.graph"
        path.write_text(serialize_graph(g))
        assert cli.main(["oracle", str(path)]) == 0
        assert strict_loads(capsys.readouterr().out)["max_cut"] == 0.0

    def test_overflowing_energies_exit_code(self, tmp_path, capsys):
        from oimsim import cli

        path = tmp_path / "big.graph"
        path.write_text("3 3\n1 2 1e308\n1 3 1e308\n2 3 1e308\n")
        assert cli.main(["oracle", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("oimsim oracle: error: energies overflow")

    def test_capacity_exit_code(self, tmp_path):
        big = tmp_path / "big.graph"
        run_cli("gen", big, "--n", "30", "--density", "0.2", "--seed", "1", "--quiet")
        proc = run_cli("oracle", big)
        assert proc.returncode == 4

    def test_capacity_is_checked_before_the_couplings_are_built(
            self, tmp_path, capsys, monkeypatch):
        # a 6000-vertex path is a 70 KB file but a 275 MiB dense J
        from oimsim import cli

        def build_couplings(g):
            raise AssertionError("dense couplings built past the capacity check")

        n = 6000
        path = tmp_path / "path.graph"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1, n)))
        monkeypatch.setattr(cli, "ising_from_maxcut", build_couplings)
        assert cli.main(["oracle", str(path)]) == 4
        assert capsys.readouterr().err == (
            "oimsim oracle: error: brute force capped at n=24, got n=6000\n")

    @pytest.mark.parametrize("flags", [["--config", "/nonexistent.json", "--seed", "3"],
                                       ["--config", "/nonexistent.json"], ["--seed", "3"]],
                             ids=["both", "config", "seed"])
    def test_refuses_flags_it_never_reads(self, capsys, flags):
        # after the graph and before it: the oracle parser refuses the first
        # flag it meets, and never takes a flag's value for the graph
        from oimsim import cli

        for argv in (["oracle", str(TRIANGLE), *flags], ["oracle", *flags, str(TRIANGLE)]):
            assert cli.main(argv) == 64
            out, err = capsys.readouterr()
            assert out == ""
            usage, message = err.splitlines()
            assert usage.startswith("usage: oimsim oracle ")
            assert message == (f"oimsim oracle: error: {flags[0]} is not an oracle option: "
                               "oracle reads no config and no seed")

    def test_takes_threads_and_quiet(self, capsys):
        from oimsim import cli

        assert cli.main(["oracle", str(TRIANGLE)]) == 0
        plain = capsys.readouterr()
        assert cli.main(["oracle", str(TRIANGLE), "--threads", "4", "--quiet"]) == 0
        assert capsys.readouterr() == plain


class TestGenCommand:
    def test_complete_graph_header(self, tmp_path):
        out = tmp_path / "g.graph"
        proc = run_cli("gen", out, "--n", "10", "--density", "1.0", "--quiet")
        assert proc.returncode == 0
        first = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
        assert first == "10 45"

    def test_same_seed_same_file(self, tmp_path):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        run_cli("gen", a, "--n", "8", "--density", "0.5", "--seed", "3", "--quiet")
        run_cli("gen", b, "--n", "8", "--density", "0.5", "--seed", "3", "--quiet")
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_density(self, tmp_path):
        proc = run_cli("gen", tmp_path / "x.graph", "--density", "1.5")
        assert proc.returncode == 64

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        from oimsim import cli

        out = tmp_path / "x.graph"
        assert cli.main(["gen", str(out), "--seed", "-1", "--quiet"]) == 64
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_writes_deterministic_csv(self, tmp_path):
        cfg = write_tiny_sweep_config(tmp_path / "sweep.json")
        digests = set()
        for name, threads in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "8")):
            out = tmp_path / name
            proc = run_cli("sweep", cfg, out, "--threads", threads, "--quiet")
            assert proc.returncode == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_missing_config(self, tmp_path):
        proc = run_cli("sweep", tmp_path / "nope.json", tmp_path / "out.csv")
        assert proc.returncode == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"swep": {}}')
        proc = run_cli("sweep", cfg, tmp_path / "out.csv")
        assert proc.returncode == 2
        assert "swep" in proc.stderr

    def test_unwritable_output(self, tmp_path):
        cfg = write_tiny_sweep_config(tmp_path / "sweep.json")
        proc = run_cli("sweep", cfg, tmp_path / "missing_dir" / "out.csv")
        assert proc.returncode == 5

    def test_bundled_kappa_config_resolves_graph(self, tmp_path):
        proc = run_cli("sweep", data_path("sweep_kappa_reference.json"),
                       tmp_path / "kappa.csv", "--quiet")
        assert proc.returncode == 0
        header = (tmp_path / "kappa.csv").read_text().splitlines()
        assert header[1].startswith("param,value,")
        assert header[2].startswith("kappa_s,")


class TestCompareCommand:
    def test_writes_valid_summary(self, tmp_path):
        cfg = write_tiny_compare_config(tmp_path / "cmp.json")
        out = tmp_path / "cmp.out.json"
        proc = run_cli("compare", cfg, out, "--quiet")
        assert proc.returncode == 0
        doc = strict_loads(out.read_text())
        jsonschema.validate(doc, load_schema("comparison_summary.schema.json"))
        assert doc["n_seeds"] == 10

    def test_byte_identical_across_threads(self, tmp_path):
        cfg = write_tiny_compare_config(tmp_path / "cmp.json")
        digests = set()
        for name, threads in (("x.json", "1"), ("y.json", "8")):
            out = tmp_path / name
            assert run_cli("compare", cfg, out, "--threads", threads, "--quiet").returncode == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1


class TestDivergedRuns:
    @pytest.mark.parametrize("command", ["solve", "sweep", "compare"])
    def test_every_run_diverged_writes_nothing(self, tmp_path, command):
        # sigma = 1e308 overflows the RHS, so every run diverges; the sweep
        # grid is the one value, or its default grid would replace it
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({
            "graph": None,
            "dynamics": {"sigma": 1e308, "kappa_s": 0.5, "injection_variant": "adler"},
            "integrator": {"dt": 0.5, "t_end": 30.0, "record_every": 1},
            "sweep": {"parameter": "sigma", "values": [1e308], "seeds": [0, 1, 2]},
            "compare": {"seeds": list(range(10))},
        }))
        out = tmp_path / "diverge.out"
        if command == "solve":
            proc = run_cli("solve", TRIANGLE, "--config", cfg, "--quiet")
        else:
            proc = run_cli(command, cfg, out, "--quiet")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert re.search(rf"^oimsim {command}: error: every run diverged: "
                         r"non-finite phase state at step \d+$", proc.stderr, re.M)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diverge.json"]

    def test_partly_diverged_compare_is_strict_json(self, tmp_path, monkeypatch, capsys):
        import oimsim.experiments
        from oimsim import cli
        from oimsim.errors import DivergenceError

        real = oimsim.experiments.integrate

        def integrate(inst, dyn, icfg, init):
            if icfg.seed == 3:
                raise DivergenceError(0)
            return real(inst, dyn, icfg, init)

        monkeypatch.setattr(oimsim.experiments, "integrate", integrate)
        cfg = write_tiny_compare_config(tmp_path / "cmp.json")
        out = tmp_path / "cmp.out.json"
        assert cli.main(["compare", str(cfg), str(out), "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        doc = strict_loads(out.read_text())
        jsonschema.validate(doc, load_schema("comparison_summary.schema.json"))
        assert doc["n_seeds"] == 10
        assert doc["median_error_distributed"] is not None
        assert doc["median_error_centralized"] is not None


class TestJSONEncoder:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_numbers(self, value):
        from oimsim import cli

        with pytest.raises(ValueError):
            cli._json({"a": [1.0, {"b": value}]})
        with pytest.raises(ValueError):
            cli._json({"a": value}, indent=None)


class TestOutputMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_outputs_get_the_mode_open_gives_a_new_file(self, tmp_path, umask, mode):
        # written through a temporary file, which mkstemp makes 0o600
        from oimsim import cli

        sweep_cfg = write_tiny_sweep_config(tmp_path / "sweep.json")
        compare_cfg = tmp_path / "cmp.json"
        compare_cfg.write_text(json.dumps({"integrator": {"t_end": 6.0},
                                           "compare": {"seeds": list(range(10))}}))
        outs = {name: tmp_path / name for name in ("g.graph", "s.csv", "c.json")}
        outs["s.csv"].write_text("")
        outs["s.csv"].chmod(0o600)      # an existing output is replaced, mode included
        argvs = (["gen", str(outs["g.graph"]), "--n", "6", "--density", "0.5", "--quiet"],
                 ["sweep", str(sweep_cfg), str(outs["s.csv"]), "--quiet"],
                 ["compare", str(compare_cfg), str(outs["c.json"]), "--quiet"])
        old = os.umask(umask)
        try:
            codes = [cli.main(argv) for argv in argvs]
        finally:
            os.umask(old)
        assert codes == [0, 0, 0]
        for path in outs.values():
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["sweep.json", "cmp.json", *outs])


class TestConfigHandling:
    def test_bad_numeric_bound_in_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"dynamics": {"sigma": -1.0}}')
        proc = run_cli("sweep", cfg, tmp_path / "out.csv")
        assert proc.returncode == 2
        assert "sigma" in proc.stderr

    def test_hold_window_longer_than_run_is_rejected_before_integrating(self, tmp_path):
        cfg = tmp_path / "short.json"
        cfg.write_text('{"integrator": {"t_end": 0.2}}')
        proc = subprocess.run(
            [sys.executable, "-m", "oimsim", "solve", str(TRIANGLE), "--config", str(cfg)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert "hold_samples" in proc.stderr

    def test_bad_lock_threshold_is_rejected_before_integrating(
        self, tmp_path, monkeypatch, capsys
    ):
        import oimsim.experiments
        from oimsim import cli

        calls = []
        real = oimsim.experiments.integrate
        monkeypatch.setattr(oimsim.experiments, "integrate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        cfg = tmp_path / "lock.json"
        cfg.write_text('{"lock": {"threshold": 1.5}}')
        code = cli.main(["solve", str(TRIANGLE), "--config", str(cfg),
                         "--attempts", "4", "--threads", "2", "--quiet"])
        assert code == 2
        assert "threshold" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("section, key, value", [
        ("integrator", "record_every", 2.5),
        ("integrator", "seed", 1.5),
        ("lock", "hold_samples", 2.5),
        ("solve", "attempts", 2.5),
    ])
    def test_integer_keys_reject_non_integers(
        self, tmp_path, monkeypatch, capsys, section, key, value
    ):
        import oimsim.experiments
        from oimsim import cli

        calls = []
        monkeypatch.setattr(oimsim.experiments, "integrate", lambda *a, **k: calls.append(a))
        for bad in (value, True):
            cfg = tmp_path / "int.json"
            cfg.write_text(json.dumps({section: {key: bad}}))
            code = cli.main(["solve", str(TRIANGLE), "--config", str(cfg), "--quiet"])
            assert code == 2
            assert f"{section}.{key} must be an integer" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("section, key", [
        ("dynamics", "sigma"),
        ("dynamics", "kappa_s"),
        ("dynamics", "noise_amplitude"),
        ("dynamics", "injection_phase"),
        ("dynamics", "injection_detuning"),
        ("integrator", "dt"),
        ("integrator", "t_end"),
        ("lock", "threshold"),
        ("sweep", "values"),
    ])
    def test_real_keys_reject_booleans_and_strings(
        self, tmp_path, monkeypatch, capsys, section, key
    ):
        import oimsim.experiments
        from oimsim import cli

        calls = []
        monkeypatch.setattr(oimsim.experiments, "integrate", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "real.json"
        out = tmp_path / "out.csv"
        for bad in (True, "0.5"):
            if section == "sweep":
                cfg.write_text(json.dumps({"sweep": {"values": [0.1, bad]}}))
                argv = ["sweep", str(cfg), str(out), "--quiet"]
            else:
                cfg.write_text(json.dumps({section: {key: bad}}))
                argv = ["solve", str(TRIANGLE), "--config", str(cfg), "--quiet"]
            assert cli.main(argv) == 2
            assert f"{section}.{key} must be a real number" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_seeds_reject_non_integers(self, tmp_path, monkeypatch, capsys, command):
        import oimsim.experiments
        from oimsim import cli

        calls = []
        monkeypatch.setattr(oimsim.experiments, "integrate", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "seeds.json"
        out = tmp_path / "out"
        for bad in (1.5, True):
            cfg.write_text(json.dumps({command: {"seeds": [*range(9), bad]}}))
            assert cli.main([command, str(cfg), str(out), "--quiet"]) == 2
            assert f"{command}.seeds must be an integer" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, flags, message", [
        ("solve", {"dynamics": {"mode": "free", "natural_freqs": [True, False, True]}}, [],
         "dynamics.natural_freqs must be a real number"),
        ("solve", {"dynamics": {"mode": "free", "natural_freqs": ["0.5", "1", "2"]}}, [],
         "dynamics.natural_freqs must be a real number"),
        ("solve", {"dynamics": {"mode": "free", "natural_freqs": [0.5, 1.0]}}, [],
         "dynamics.natural_freqs length 2 != n 3"),
        ("solve", {}, ["--seed", "-1"], "integrator.seed must be >= 0"),
        ("sweep", {"sweep": {"seeds": [-2]}}, [], "sweep.seeds must be >= 0"),
        ("compare", {"compare": {"seeds": [*range(9), -2]}}, [], "compare.seeds must be >= 0"),
        ("sweep", {"sweep": {"values": 5}}, [], "config key 'sweep.values' must be an array"),
        ("sweep", {"sweep": {"seeds": 3}}, [], "config key 'sweep.seeds' must be an array"),
        ("sweep", {"sweep": {"values": None}}, [], "config key 'sweep.values' must be an array"),
        ("sweep", {"graph": 5}, [], "config key 'graph' must be a string or null"),
        ("compare", {"compare": {"seeds": 7}}, [], "config key 'compare.seeds' must be an array"),
        # json.dumps writes these as the non-JSON tokens NaN, Infinity and -Infinity
        ("solve", {"sweep": {"values": [math.nan]}}, [], "NaN is not a JSON number"),
        ("sweep", {"dynamics": {"sigma": math.inf}}, [], "Infinity is not a JSON number"),
        ("compare", {"lock": {"threshold": -math.inf}}, [], ": -Infinity is not a JSON number"),
    ], ids=["freqs-bool", "freqs-str", "freqs-length", "seed-flag", "sweep-seeds",
            "compare-seeds", "sweep-values-number", "sweep-seeds-number", "sweep-values-null",
            "graph-number", "compare-seeds-number", "nan-token", "infinity-token",
            "minus-infinity-token"])
    def test_config_faults_name_their_key(
        self, tmp_path, monkeypatch, capsys, command, doc, flags, message
    ):
        import oimsim.experiments
        from oimsim import cli

        calls = []
        monkeypatch.setattr(oimsim.experiments, "integrate", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if command == "solve":
            argv = ["solve", str(TRIANGLE), "--config", str(cfg)]
        else:
            argv = [command, str(cfg), str(out)]
        assert cli.main([*argv, *flags, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_negative_threads_is_usage_error(self, monkeypatch, capsys):
        import oimsim.experiments
        from oimsim import cli

        calls = []
        monkeypatch.setattr(oimsim.experiments, "integrate", lambda *a, **k: calls.append(a))
        assert cli.main(["solve", str(TRIANGLE), "--threads", "-3", "--quiet"]) == 64
        assert "--threads" in capsys.readouterr().err
        assert calls == []

    def test_zero_threads_means_auto(self):
        outputs = [
            run_cli("solve", TRIANGLE, "--attempts", "2", "--threads", threads, "--quiet")
            for threads in ("1", "0")
        ]
        assert [proc.returncode for proc in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout

    def test_t_end_off_the_dt_grid_is_rejected(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text('{"integrator": {"dt": 0.03, "t_end": 0.1}}')
        proc = run_cli("solve", TRIANGLE, "--config", cfg)
        assert proc.returncode == 2
        assert "multiple of dt" in proc.stderr

    def test_solver_failure_exit_code(self, monkeypatch):
        # divergence cannot happen with bounded velocities, so fake it
        import oimsim.cli as cli
        from oimsim.errors import DivergenceError

        def exploding_solve(*args, **kwargs):
            raise DivergenceError(7)

        monkeypatch.setattr(cli, "solve", exploding_solve)
        assert cli.main(["solve", str(TRIANGLE), "--quiet"]) == 3

    def test_defaults_echo_the_config_dataclasses(self):
        from oimsim.cli import _defaults

        cfg = _defaults()
        assert cfg["dynamics"] == {
            "sigma": 1.0, "kappa_s": 0.75, "mode": "distributed",
            "injection_variant": "subharmonic", "injection_phase": 0.0,
            "injection_detuning": 0.0, "noise_amplitude": 0.0, "natural_freqs": None,
        }
        assert cfg["integrator"] == {"dt": 0.01, "t_end": 50.0, "record_every": 10, "seed": 0}
        assert cfg["lock"] == {"threshold": 0.9, "hold_samples": 50}

    def test_bundled_configs_are_loadable(self):
        from oimsim.cli import load_effective_config

        for name in ("compare_reference.json", "sweep_sigma_reference.json",
                      "sweep_kappa_reference.json"):
            cfg, cfg_dir = load_effective_config(str(data_path(name)))
            assert cfg_dir is not None
            assert set(cfg) == {"graph", "dynamics", "integrator", "lock",
                                "sweep", "compare", "solve"}

    def test_bundled_graphs_parse(self):
        from oimsim import parse_graph

        for name in ("triangle.graph", "reference10.graph", "frustrated10.graph"):
            g = parse_graph(data_path(name).read_text())
            assert g.n in (3, 10)


class TestHelp:
    @pytest.mark.parametrize("cmd", ["solve", "oracle", "sweep", "compare", "gen"])
    def test_subcommand_help(self, cmd):
        proc = run_cli(cmd, "--help")
        assert proc.returncode == 0
        assert "--help" in proc.stdout
        if cmd == "oracle":
            for flag in ("--threads", "--quiet"):
                assert flag in proc.stdout
        elif cmd != "gen":
            for flag in ("--config", "--seed", "--threads", "--quiet"):
                assert flag in proc.stdout

    @pytest.mark.parametrize("cmd", ["solve", "oracle", "sweep", "compare", "gen"])
    def test_help_states_each_default_once(self, cmd):
        proc = run_cli(cmd, "--help")
        assert proc.returncode == 0
        flat = " ".join(proc.stdout.split())
        assert "(default: None)" not in flat
        if cmd == "gen":
            assert "--n N vertex count (default: 10)" in flat
        else:
            assert re.search(r"--threads THREADS [^-]*\(default: 1\)", flat)
        if cmd in ("solve", "sweep", "compare"):
            assert flat.count("(default: built-in defaults)") == 1
            assert flat.count("(default: from config)") == 1

    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for cmd in ("solve", "oracle", "sweep", "compare", "gen"):
            assert cmd in proc.stdout

    def test_unknown_command_is_usage_error(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 64


class TestParserReuse:
    """One process's ``main`` calls share one parser: no call sees another's flags."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from oimsim import cli

        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch, builds):
        from oimsim import cli

        monkeypatch.setenv("COLUMNS", "80")     # help wraps alike in both
        sweep_cfg = write_tiny_sweep_config(tmp_path / "sweep.json")
        steps = [
            (["solve", str(TRIANGLE), "--attempts", "2", "--seed", "5"], 0),
            (["solve", str(TRIANGLE)], 0),
            (["oracle", str(TRIANGLE), "--seed", "3"], 64),
            (["oracle", str(TRIANGLE)], 0),
            (["sweep", "--help"], 0),
            (["sweep", str(sweep_cfg), "{out}", "--quiet"], 0),
        ]
        for k, (argv, code) in enumerate(steps):
            here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
            assert cli.main([a.format(out=here) for a in argv]) == code
            out, err = capsys.readouterr()
            proc = run_cli(*(a.format(out=fresh) for a in argv))
            assert proc.returncode == code
            assert (out, err) == (proc.stdout, proc.stderr), argv
            if "{out}" in argv:
                assert here.read_bytes() == fresh.read_bytes()
        assert len(builds) == 1
