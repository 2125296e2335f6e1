"""End-to-end command tests: config validation, artifacts, exit codes.

Everything runs in-process through cli.main so exit codes and stderr text
are asserted directly; artifacts land in per-test temp directories.
"""
import csv
import dataclasses
import json
import zlib

import numpy as np
import pytest

from sensorsched import cli, read_sequence

NAN, INF = float("nan"), float("inf")
PAIR_TARGETS = [
    {
        "A": [[0.0, 1.0], [-0.49, 1.4]],
        "C": [[1.0, 0.0]],
        "Q": [[5.0, 0.0], [0.0, 5.0]],
        "R": [[0.5]],
        "label": "noisy",
    },
    {
        "A": [[0.0, 1.0], [-0.72, 1.7]],
        "C": [[1.0, 0.0]],
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0]],
        "label": "drifty",
    },
]


def write_config(tmp_path, name="scenario.json", **sections):
    config = {"targets": PAIR_TARGETS, **sections}
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        rc, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "not found" in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        rc, out, err = run(capsys, "solve", "--config", str(tmp_path), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: cannot read config") and err.count("\n") == 1
        assert "Traceback" not in out + err

    def test_out_is_a_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc, out, err = run(capsys, "solve", "--config", str(config), "--out", str(taken))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("config error: --out") and err.count("\n") == 1
        assert out == "" and taken.read_text() == ""

    @pytest.mark.parametrize("command, artifact", [
        ("solve", "solution.csv"),
        ("schedule", "schedule_csma.txt"),
    ])
    def test_unwritable_artifact(self, tmp_path, capsys, command, artifact):
        config = write_config(tmp_path, schedule={"duration": 50})
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        argv = [command, "--config", str(config), "--out", str(out)]
        rc, _, err = run(capsys, *argv, *(["--kind", "csma"] if command == "schedule" else []))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"config error: {out / artifact}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "not valid JSON" in err

    def test_non_object_root(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "root must be an object" in err

    def test_no_targets(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"targets": []}))
        rc, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "no targets" in err

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "budget"),
            ("solver", "tolerance"),
            ("solver", "consensus_tol"),
            ("solver", "mare_tol"),
            ("schedule", "alpha"),
            ("schedule", "length"),
            ("simulate", "horizon"),
            ("simulate", "window"),
            ("schedule", "epsilon_jitter"),
            ("constraints", "weights"),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, capsys, section, key):
        sections = {section: {key: 1}} if section else {key: 1}
        cfg = write_config(tmp_path, **sections)
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "unknown key" in err and key in err

    def test_unknown_target_key(self, tmp_path, capsys):
        cfg = tmp_path / "t.json"
        entry = dict(PAIR_TARGETS[0], gain=2.0)
        cfg.write_text(json.dumps({"targets": [entry]}))
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "targets[0]" in err and "gain" in err

    def test_non_numeric_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "t.json"
        entry = dict(PAIR_TARGETS[0], A=[["x", 1], [0, 1]])
        cfg.write_text(json.dumps({"targets": [entry]}))
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "not a numeric matrix" in err

    def test_missing_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "t.json"
        entry = {k: v for k, v in PAIR_TARGETS[0].items() if k != "C"}
        cfg.write_text(json.dumps({"targets": [entry]}))
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "missing matrix" in err

    def test_model_validation_failure(self, tmp_path, capsys):
        cfg = tmp_path / "t.json"
        # a bare number is a 1x1 matrix
        entry = dict(PAIR_TARGETS[0], R=0.0)
        cfg.write_text(json.dumps({"targets": [entry]}))
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "failed validation" in err
        assert "positive definite" in err

    def test_bad_constraints(self, tmp_path, capsys):
        cfg = write_config(tmp_path, constraints={"priorities": [0.8, 0.8]})
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "constraints" in err

    @pytest.mark.parametrize(
        "topology, fragment",
        [
            ("star", "unknown name"),
            ([[1]], "one neighbor list per target"),
            ([[1], [5]], "invalid neighbor"),
            ([[0], [1]], "invalid neighbor"),
            ([[1], 0], "expected a list of neighbors"),
            # JSON booleans are ints to Python, and a numpy mask as an index
            ([[1], [False]], "topology[1]: invalid neighbor False"),
            ([[True], [0]], "topology[0]: invalid neighbor True"),
            ([[True], [False]], "topology[0]: invalid neighbor True"),
        ],
    )
    def test_bad_topology(self, tmp_path, capsys, topology, fragment):
        cfg = write_config(tmp_path, topology=topology)
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert fragment in err

    @pytest.mark.parametrize(
        "sections, fragment",
        [
            ({"targets": 5}, "no targets"),
            ({"targets": [{"chain": 5}]}, "targets[0].chain: expected an object"),
            ({"solver": []}, "solver: expected an object"),
            ({"solver": 5}, "solver: expected an object"),
            ({"constraints": [1]}, "constraints: expected an object"),
            (
                {"targets": [dict(PAIR_TARGETS[0], cost_weights={"a": 1})]},
                "targets[0]",
            ),
            # non-finite entries used to exit 4 (A, Q), 3 (C, cost_weights)
            # or 2 naming no key ("q must lie in [0, 1], got nan")
            *(
                (
                    {"targets": [PAIR_TARGETS[0], dict(PAIR_TARGETS[1], **{key: value})]},
                    f"targets[1]: {key} must have finite entries only",
                )
                for key, value in [
                    ("A", [[0.0, NAN], [-0.72, 1.7]]),
                    ("A", [[0.0, 1.0], [-INF, 1.7]]),
                    ("C", [[NAN, 0.0]]),
                    ("Q", [[1.0, 0.0], [0.0, INF]]),
                    ("R", [[NAN]]),
                    ("cost_weights", [1.0, NAN]),
                ]
            ),
            ({"constraints": {"priorities": [0.1, NAN]}}, "constraints: priorities entries"),
            ({"constraints": {"loss": [NAN, 0.0]}}, "constraints: loss entries"),
            ({"targets": [PAIR_TARGETS[0], 5]}, "targets[1]: expected an object"),
            ({"targets": [{"chain": {"a": 1.0, "R": 1.0}}]},
             "targets[0].chain: missing key(s) Q"),
            ({"targets": [{"chain": {"a": 1.0, "Q": -1.0, "R": 1.0}}]},
             "targets[0].chain: Q must be positive"),
            # a label that is not a string used to crash `solve` after solving
            ({"targets": [PAIR_TARGETS[0], dict(PAIR_TARGETS[1], label=None)]},
             "targets[1].label: expected a string, got None"),
            ({"targets": [PAIR_TARGETS[0], dict(PAIR_TARGETS[1], label=["drifty"])]},
             "targets[1].label: expected a string, got ['drifty']"),
            ({"targets": [{"chain": {"a": 1.0, "Q": 1.0, "R": 1.0}, "label": 7}]},
             "targets[0].label: expected a string, got 7"),
        ],
        ids=["targets", "chain", "solver-list", "solver-number", "constraints", "cost-weights",
             "A-nan", "A-inf", "C-nan", "Q-inf", "R-nan", "cost-weights-nan",
             "priorities-nan", "loss-nan", "target-entry", "chain-missing", "chain-rejected",
             "label-null", "label-list", "chain-label"],
    )
    def test_malformed_section(self, tmp_path, capsys, sections, fragment):
        cfg = write_config(tmp_path, **sections)
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert fragment in err

    @pytest.mark.parametrize("outer_tol", [0, -1, float("nan"), 1e-3])
    def test_outer_tol_must_be_positive(self, tmp_path, capsys, outer_tol):
        # the Newton solver stops at fixed tolerances, so the budget
        # bracket's outer_tol is gone: a scenario that still sets it, at
        # the values once rejected here or any other, exits naming the key
        cfg = write_config(tmp_path, solver={"outer_tol": outer_tol})
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "unknown key(s) in solver: outer_tol" in err

    @pytest.mark.parametrize("inner_tol", [0, -1, float("nan")])
    def test_inner_tol_must_be_positive(self, tmp_path, capsys, inner_tol):
        cfg = write_config(tmp_path, solver={"inner_tol": inner_tol})
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert "inner_tol must be positive" in err

    @pytest.mark.parametrize(
        "sections, fragment",
        [
            ({"schedule": {"L": [1]}}, "schedule.L"),
            ({"schedule": {"L": 12.9}}, "schedule.L"),
            ({"schedule": {"L": "12"}}, "schedule.L"),
            ({"schedule": {"seed": True}}, "schedule.seed"),
            ({"schedule": {"duration": None}}, "schedule.duration"),
            ({"schedule": {"duration": 2.5}}, "schedule.duration"),
            ({"solver": {"inner_tol": None}}, "solver.inner_tol"),
            ({"solver": {"inner_tol": [1e-5]}}, "solver.inner_tol"),
            ({"simulate": {"T": 1.5}}, "simulate.T"),
            ({"simulate": {"runs": False}}, "simulate.runs"),
            ({"solver": {"inner_tol": True}}, "solver.inner_tol"),
            ({"simulate": {"seed": None}}, "simulate.seed"),
            ({"targets": [{"chain": {"a": 1, "Q": 1, "R": 1, "d": 1.5}}]}, "targets[0].chain.d"),
            ({"targets": [{"chain": {"a": "1", "Q": 1, "R": 1}}]}, "targets[0].chain.a"),
        ],
    )
    def test_mistyped_scalar(self, tmp_path, capsys, sections, fragment):
        # each used to crash with a TypeError or be truncated to an int
        cfg = write_config(tmp_path, **sections)
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == cli.EXIT_CONFIG
        assert fragment in err

    @pytest.mark.parametrize(
        "argv, sections, fragment",
        [
            (["simulate"], {"simulate": {"seed": -1}}, "simulate.seed"),
            (["schedule"], {"schedule": {"seed": -1}}, "schedule.seed"),
            (["simulate"], {"simulate": {"T": 0}}, "simulate.T"),
            (["simulate"], {"simulate": {"runs": 0}}, "simulate.runs"),
            (["schedule", "--kind", "csma"], {"schedule": {"L": 0}}, "schedule.L"),
            (["schedule", "--kind", "csma"], {"schedule": {"duration": 0}}, "schedule.duration"),
            (["compare", "--window", "0"], {}, "--window"),
        ],
        ids=["simulate.seed", "schedule.seed", "simulate.T", "simulate.runs", "schedule.L",
             "schedule.duration", "window-flag"],
    )
    def test_out_of_range_setting_fails_before_the_solve(
        self, tmp_path, capsys, argv, sections, fragment
    ):
        # negative seeds and zero sizes used to fail only after a full solve
        # (naming no key), to name the wrong key, or to be ignored
        cfg = write_config(tmp_path, **sections)
        out = tmp_path / "out"
        rc, _, err = run(capsys, *argv, "--config", str(cfg), "--out", str(out))
        assert rc == cli.EXIT_CONFIG
        assert f"{fragment}: must be at least" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "schedule", "simulate", "compare"])
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--distributed"]],
                             ids=["seed", "distributed"])
    def test_removed_flags_are_rejected(self, tmp_path, capsys, command, flag):
        # the scenario file holds the seeds and the topology
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert flag[0] not in capsys.readouterr().out
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(out), *flag])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_is_frozen(self, tmp_path):
        # no flag overrides a setting of the scenario file
        scn = cli.load_scenario(write_config(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.sim_seed = 2

    def test_runtime_value_error_maps_to_config_exit(self, tmp_path, capsys):
        # a length too short for q* is caught inside the run
        cfg = write_config(tmp_path, schedule={"L": 1})
        out = tmp_path / "out"
        rc, _, err = run(
            capsys, "schedule", "--config", str(cfg), "--out", str(out), "--kind", "minconsec"
        )
        assert rc == cli.EXIT_CONFIG
        assert "choose a larger L" in err


class TestSolveCommand:
    def test_writes_solution_and_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc, stdout, err = run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        assert err == ""
        assert "gamma_star = 59.07" in stdout
        assert "noisy" in stdout and "drifty" in stdout
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "target,label,q_star,cost,q_critical,gamma_star,feasible,scenario"
        assert len(lines) == 3
        qs = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(qs) == pytest.approx(1.0, abs=1e-9)
        assert qs[0] == pytest.approx(0.674, abs=0.005)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 0
        first = (out / "solution.csv").read_bytes()
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 0
        assert (out / "solution.csv").read_bytes() == first

    def test_topology_in_config_matches_centralized(self, tmp_path, capsys):
        plain = write_config(tmp_path, name="plain.json")
        lined = write_config(tmp_path, name="lined.json", topology="line")
        listed = write_config(tmp_path, name="listed.json", topology=[[1], [0]])
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(capsys, "solve", "--config", str(plain), "--out", str(a))[0] == 0
        assert run(capsys, "solve", "--config", str(lined), "--out", str(b))[0] == 0
        assert run(capsys, "solve", "--config", str(listed), "--out", str(c))[0] == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "solution.csv").read_bytes() == (c / "solution.csv").read_bytes()

    def test_infeasible_scenario_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "inf.json"
        cfg.write_text(
            json.dumps(
                {
                    "targets": [
                        {"chain": {"a": 2.0, "Q": 1.0, "R": 1.0}, "label": "hot"},
                        # noise drives only the last of its two states
                        {"chain": {"a": 1.0, "Q": 1.0, "R": 1.0, "d": 1}, "label": "late"},
                    ],
                    "constraints": {"loss": [0.6, 0.0]},
                    "solver": {"inner_tol": 1e-4},
                }
            )
        )
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_INFEASIBLE
        assert "warning: targets[1]: Q is singular" in err
        assert "infeasible:" in err
        assert (
            "infeasible: target hot cannot be stabilized: with loss 0.6, even constant "
            "observation delivers it probability 0.4, at or below its critical probability"
        ) in err
        assert not (tmp_path / "o" / "solution.csv").exists()

    def test_infeasible_line_holds_the_diagnosis_alone(self, tmp_path, capsys):
        # two outputs and two unstable modes leave q^c to the bisection,
        # whose probes within 1e-3 above the lower bound 1 - 1/1.2^2 warn of
        # conditioning before the demand check fails
        eye = [[1.0, 0.0], [0.0, 1.0]]
        cfg = tmp_path / "inf.json"
        cfg.write_text(
            json.dumps(
                {
                    "targets": [
                        {"A": [[1.2, 0.0], [0.0, 1.1]], "C": eye, "Q": eye, "R": eye},
                        {"chain": {"a": 0.5, "Q": 1, "R": 1}},
                    ],
                    "constraints": {"priorities": [0, 0.8]},
                }
            )
        )
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_INFEASIBLE
        lines = err.splitlines()
        assert lines[-1] == (
            "infeasible: priorities and loss-adjusted critical probabilities "
            "demand total probability 1.10557 > 1"
        )
        assert err.count("demand total probability") == 1
        conditioning = lines[:-1]
        assert len(conditioning) == 8
        assert all(line.startswith("warning: q = 0.30") and "lower bound) 0.305556;" in line
                   for line in conditioning)

    def test_infeasible_line_names_the_lossy_target(self, tmp_path, capsys):
        # q = 1 delivers 0.7 of fast's slots, below its q^c = 0.75; slow is stable
        cfg = tmp_path / "inf.json"
        cfg.write_text(
            json.dumps(
                {
                    "targets": [
                        {"label": "fast", "chain": {"a": 2, "Q": 1, "R": 1}},
                        {"label": "slow", "chain": {"a": 0.5, "Q": 1, "R": 1}},
                    ],
                    "constraints": {"loss": [0.3, 0]},
                }
            )
        )
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_INFEASIBLE
        assert err.splitlines() == [
            "infeasible: target fast cannot be stabilized: with loss 0.3, even constant "
            "observation delivers it probability 0.7, at or below its critical probability"
        ]

    def test_numerical_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("matrix is singular")

        monkeypatch.setattr(cli, "solve_distribution", explode)
        cfg = write_config(tmp_path)
        rc, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == cli.EXIT_NUMERIC
        assert "numerical failure" in err


class TestScheduleCommand:
    def test_minconsec_reuses_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        rc, stdout, err = run(
            capsys, "schedule", "--config", str(cfg), "--out", str(out), "--kind", "minconsec"
        )
        assert rc == 0
        assert err == ""  # reused solution.csv, no re-solve notice
        assert "max run length = 3" in stdout
        seq = read_sequence(out / "schedule_minconsec.txt")
        assert seq.counts().tolist() == [337, 163]

    def test_stale_solution_triggers_resolve(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "solution.csv").write_text(
            "target,label,q_star,cost,q_critical,gamma_star,feasible\n"
            "0,only,1.0,10.0,0.0,10.0,true\n"
        )
        rc, _, err = run(
            capsys, "schedule", "--config", str(cfg), "--out", str(out), "--kind", "minconsec"
        )
        assert rc == 0
        assert "re-solving" in err

    def test_solution_of_another_scenario_is_not_reused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path)
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 0
        quiet = [dict(PAIR_TARGETS[0], Q=[[0.1, 0.0], [0.0, 0.1]]), PAIR_TARGETS[1]]
        cfg.write_text(json.dumps({"targets": quiet}))
        rc, stdout, err = run(
            capsys, "schedule", "--config", str(cfg), "--out", str(out), "--kind", "random"
        )
        assert rc == 0
        assert "re-solving" in err
        assert "noisy=0," in stdout

    def test_resolved_solution_is_written_back(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path)
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 0
        quiet = [dict(PAIR_TARGETS[0], Q=[[0.1, 0.0], [0.0, 0.1]]), PAIR_TARGETS[1]]
        cfg.write_text(json.dumps({"targets": quiet}))
        argv = ["schedule", "--config", str(cfg), "--out", str(out), "--kind", "random"]
        rc, first, err = run(capsys, *argv)
        assert rc == 0
        assert "re-solving" in err

        def no_solve(*args, **kwargs):
            raise AssertionError("solved again")

        monkeypatch.setattr(cli, "solve_distribution", no_solve)
        rc, second, err = run(capsys, *argv)
        assert rc == 0
        assert err == ""
        assert second == first

    def test_random_schedule_is_seed_stable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schedule={"L": 200, "seed": 3})
        out = tmp_path / "out"
        argv = ["schedule", "--config", str(cfg), "--out", str(out), "--kind", "random"]
        run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        run(capsys, *argv)
        first = (out / "schedule_random.txt").read_bytes()
        run(capsys, *argv)
        assert (out / "schedule_random.txt").read_bytes() == first
        # the schedule seed stays out of the solution's key: only the schedule changes
        write_config(tmp_path, schedule={"L": 200, "seed": 99})
        rc, _, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert (out / "schedule_random.txt").read_bytes() != first

    def test_csma_uses_duration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schedule={"L": 500, "duration": 250})
        out = tmp_path / "out"
        run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        rc, stdout, _ = run(
            capsys, "schedule", "--config", str(cfg), "--out", str(out), "--kind", "csma"
        )
        assert rc == 0
        assert "L = 250" in stdout
        assert len(read_sequence(out / "schedule_csma.txt")) == 250

    def test_csma_accepts_a_target_at_its_floor(self, tmp_path, capsys):
        # a cheap, strictly stable target gets q* = inner_tol = 1e-5, which
        # the contention model must accept like any other probability
        quiet = {"A": [[0.1]], "C": [[1.0]], "Q": [[0.01]], "R": [[1.0]], "label": "quiet"}
        cfg = tmp_path / "floor.json"
        cfg.write_text(json.dumps({"targets": [*PAIR_TARGETS, quiet], "simulate": {"T": 200}}))
        out = tmp_path / "out"
        run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        with open(out / "solution.csv", newline="") as f:
            assert float(list(csv.DictReader(f))[2]["q_star"]) == pytest.approx(1e-5, rel=1e-3)
        for command in ("schedule", "simulate"):
            rc, _, err = run(
                capsys, command, "--config", str(cfg), "--out", str(out), "--kind", "csma"
            )
            assert rc == 0, err
        assert len(read_sequence(out / "schedule_csma.txt")) == 500
        assert len((out / "traces.csv").read_text().splitlines()) == 201


class TestSimulateCommand:
    def test_rejects_window_flag(self, tmp_path, capsys):
        # the lookahead baseline runs only in compare
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--window", "3"])
        assert exc.value.code == 2
        assert "--window" in capsys.readouterr().err

    def test_deterministic_traces(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"T": 60, "runs": 5, "seed": 11})
        out = tmp_path / "out"
        run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        rc, stdout, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        assert "runs = 5" in stdout
        lines = (out / "traces.csv").read_text().splitlines()
        assert lines[0] == "step,target_0_trace,target_1_trace"
        assert len(lines) == 61
        first = (out / "traces.csv").read_bytes()
        run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (out / "traces.csv").read_bytes() == first

    def test_minconsec_traces_tile_the_schedule(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, schedule={"L": 40}, simulate={"T": 100, "runs": 2}
        )
        out = tmp_path / "out"
        run(capsys, "solve", "--config", str(cfg), "--out", str(out))
        rc, stdout, _ = run(
            capsys, "simulate", "--config", str(cfg), "--out", str(out), "--kind", "minconsec"
        )
        assert rc == 0
        assert "max cost" in stdout
        rows = (out / "traces.csv").read_text().splitlines()[1:]
        assert len(rows) == 100
        values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        assert np.isfinite(values).all() and (values > 0).all()


class TestCompareCommand:
    def test_all_methods_reported(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            schedule={"L": 100},
            simulate={"T": 60, "runs": 4, "seed": 2},
        )
        out = tmp_path / "out"
        rc, stdout, _ = run(
            capsys, "compare", "--config", str(cfg), "--out", str(out), "--window", "3"
        )
        assert rc == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "method,max_cost,half_width,note"
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["bound", "stochastic", "minconsec", "sliding_window"]
        bound = float(lines[1].split(",")[1])
        assert bound == pytest.approx(59.0724, abs=1e-4)
        for line in lines[1:]:
            assert line.split(",")[1] != ""

    def test_reuses_solution_of_same_scenario(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, simulate={"T": 40, "runs": 2})
        out = tmp_path / "out"
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 0

        def no_solve(*args, **kwargs):
            raise AssertionError("compare re-solved a scenario solve already wrote")

        monkeypatch.setattr(cli, "solve_distribution", no_solve)
        rc, _, err = run(capsys, "compare", "--config", str(cfg), "--out", str(out))
        assert rc == 0 and err == ""
        gamma = (out / "solution.csv").read_text().splitlines()[1].split(",")[5]
        bound = (out / "comparison.csv").read_text().splitlines()[1].split(",")[1]
        assert bound == gamma

    def test_resolves_a_solution_fingerprinted_with_outer_tol(self, tmp_path, capsys):
        # a solution.csv whose fingerprint still covers the deleted
        # solver.outer_tol (its default 1e-3 beside inner_tol) is stale
        cfg = write_config(tmp_path, simulate={"T": 40, "runs": 2})
        out = tmp_path / "out"
        assert run(capsys, "solve", "--config", str(cfg), "--out", str(out))[0] == 0
        fresh = (out / "solution.csv").read_text()
        old_key = zlib.crc32(json.dumps([PAIR_TARGETS, None, [1e-3, 1e-5]],
                                        sort_keys=True).encode())
        new_key = cli.load_scenario(cfg).key
        assert f"{old_key:08x}" != new_key
        (out / "solution.csv").write_text(fresh.replace(new_key, f"{old_key:08x}"))
        rc, _, err = run(capsys, "compare", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        assert "belongs to another scenario, re-solving and replacing it" in err
        assert (out / "solution.csv").read_text() == fresh

    def test_window_flag_adds_the_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"T": 40, "runs": 2})
        out = tmp_path / "out"
        rc, stdout, _ = run(
            capsys, "compare", "--config", str(cfg), "--out", str(out), "--window", "2"
        )
        assert rc == 0
        assert "window=2" in stdout

    def test_without_window_omits_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"T": 40, "runs": 2})
        out = tmp_path / "out"
        rc, _, _ = run(capsys, "compare", "--config", str(cfg), "--out", str(out))
        assert rc == 0
        methods = [
            line.split(",")[0]
            for line in (out / "comparison.csv").read_text().splitlines()[1:]
        ]
        assert "sliding_window" not in methods

    def test_failed_methods_leave_notes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            schedule={"L": 3},
            simulate={"T": 40, "runs": 2},
        )
        out = tmp_path / "out"
        rc, _, _ = run(
            capsys, "compare", "--config", str(cfg), "--out", str(out), "--window", "25"
        )
        assert rc == 0
        with open(out / "comparison.csv", newline="") as f:
            rows = {r["method"]: (r["max_cost"], r["note"]) for r in csv.DictReader(f)}
        assert rows["minconsec"][0] == ""
        assert rows["minconsec"][1].startswith("failed:")
        assert rows["sliding_window"][0] == ""
        assert "smaller window" in rows["sliding_window"][1]
        assert rows["stochastic"][0] != ""