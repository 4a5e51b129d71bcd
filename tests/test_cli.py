"""Experiment driver: config validation, end-to-end runs, determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcnpart
from gcnpart import CsrMatrix, transpose_sparse
from gcnpart.sparse import is_symmetric, transpose_order
from gcnpart.cli import ExperimentConfig, main, parse_args, run_experiment

from helpers import grid_graph, write_partition


def write_grid(tmp_path, rows=8, cols=8):
    a = grid_graph(rows, cols)
    lines = []
    row_of = np.repeat(np.arange(a.n_rows), a.row_nnz())
    for i, j in zip(row_of, a.col_indices):
        if i < j:
            lines.append(f"{i} {j}")
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def base_config(graph, out, **overrides):
    cfg = ExperimentConfig(
        graph=str(graph),
        p=4,
        partitioners=("rp", "hp"),
        layers=1,
        dims=(4, 3),
        epochs=2,
        seed=5,
        out=str(out),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestConfigValidation:
    def test_dims_layer_mismatch_rejected(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", dims=(4, 3, 2))
        with pytest.raises(ValueError, match="dims"):
            cfg.validate()

    def test_p_beyond_n_rejected_before_training(self, tmp_path):
        cfg = base_config(write_grid(tmp_path, 2, 2), tmp_path / "o", p=8)
        with pytest.raises(ValueError, match="exceeds"):
            run_experiment(cfg)

    def test_unknown_partitioner_rejected(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", partitioners=("rp", "metis"))
        with pytest.raises(ValueError, match="unknown partitioner"):
            cfg.validate()

    def test_file_partitioner_needs_path(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", partitioners=("file",))
        with pytest.raises(ValueError, match="partition-file"):
            cfg.validate()

    def test_shp_needs_batch_size(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", partitioners=("rp", "shp"))
        with pytest.raises(ValueError, match="batch-size"):
            cfg.validate()

    @pytest.mark.parametrize("batches", ["0", "-2"])
    @pytest.mark.parametrize("mode,partitioner", [("mini", "rp"), ("full", "rp,shp")])
    def test_batches_below_one_rejected(self, tmp_path, capsys, batches, mode, partitioner):
        out = tmp_path / "o"
        argv = [
            "--graph", str(write_grid(tmp_path)), "-p", "2", "--partitioner", partitioner,
            "--layers", "1", "--dims", "4,3", "--epochs", "1", "--seed", "5", "--out", str(out),
            "--mode", mode, "--batch-size", "3", "--batches", batches,
        ]
        assert main(argv) == 2
        assert "--batches" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--epsilon", "-0.5"], "epsilon must be >= 0"),
        (["--epsilon", "nan"], "epsilon must be >= 0"),
        (["-p", "3", "--partitioner", "rp,hp"], "power of two (got 3)"),
        (["-p", "6", "--partitioner", "gp"], "power of two (got 6)"),
        (["-p", "3", "--partitioner", "shp", "--batch-size", "3"], "power of two (got 3)"),
        (["--learning-rate", "0"], "learning rate must be positive and finite"),
        (["--learning-rate", "inf"], "learning rate must be positive and finite"),
        (["--scheduler", "bogus"], "invalid choice: 'bogus'"),
        (["--mode", "mini", "--batch-size", "-3"], "batch_size must be >= 1"),
    ])
    def test_rules_checked_before_any_file_is_read(self, tmp_path, capsys, extra, message):
        # the graph does not exist: reading it would exit 1
        out = tmp_path / "o"
        argv = [
            "--graph", str(tmp_path / "missing.txt"), "--layers", "1", "--dims", "4,3",
            "--epochs", "1", "--seed", "5", "--out", str(out), *extra,
        ]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scheduler_rejected(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", scheduler="bogus")
        with pytest.raises(ValueError, match="unknown scheduler 'bogus'"):
            cfg.validate()

    def test_seed_flag_is_mandatory(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["--graph", "g.txt"])

    def test_parse_args_round_trip(self):
        cfg = parse_args(
            [
                "--graph", "g.txt", "--format", "edge_list", "-p", "8",
                "--partitioner", "rp,gp,hp", "--layers", "2", "--dims", "4,8,3",
                "--epochs", "3", "--seed", "11", "--out", "results",
                "--mode", "mini", "--batch-size", "32", "--batches", "5",
            ]
        )
        assert cfg.p == 8
        assert cfg.partitioners == ("rp", "gp", "hp")
        assert cfg.dims == (4, 8, 3)
        assert cfg.mode == "mini" and cfg.batch_size == 32
        # options not given take ExperimentConfig's defaults
        assert parse_args(["--graph", "g", "--seed", "0"]) == ExperimentConfig(graph="g", seed=0)

    def test_non_integer_dims_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--graph", "g", "--seed", "0", "--dims", "4,x"])
        assert exc.value.code == 2
        assert "--dims: expected comma-separated integers, got '4,x'" in capsys.readouterr().err


class TestRunExperiment:
    def test_single_rank_reports_zero_communication(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", p=1, partitioners=("rp",))
        doc = run_experiment(cfg)
        run = doc["runs"][0]
        assert all(e["total_words"] == 0 for e in run["epochs"])
        assert all(e["total_msgs"] == 0 for e in run["epochs"])

    def test_reports_are_byte_identical_across_reruns(self, tmp_path):
        graph = write_grid(tmp_path)
        out = tmp_path / "o"
        argv = [
            "--graph", str(graph), "-p", "4", "--partitioner", "rp,hp",
            "--layers", "1", "--dims", "4,3", "--epochs", "2",
            "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        first_json = (out / "report.json").read_bytes()
        first_csv = (out / "report.csv").read_bytes()
        assert main(argv) == 0
        assert (out / "report.json").read_bytes() == first_json
        assert (out / "report.csv").read_bytes() == first_csv

    def test_hypergraph_partitioner_beats_random_on_grid(self, tmp_path):
        cfg = base_config(write_grid(tmp_path, 12, 12), tmp_path / "o")
        doc = run_experiment(cfg)
        rows = {r["partitioner"]: r for r in doc["comparison"]["rows"]}
        assert rows["hp"]["avg_volume_norm"] < 1.0

    def test_timing_lives_outside_the_report(self, tmp_path):
        out = tmp_path / "o"
        cfg = base_config(write_grid(tmp_path), out)
        run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert "wallclock" not in json.dumps(report)
        timing = json.loads((out / "timing.json").read_text())
        assert "rp" in timing and "wallclock_s" in timing["rp"]

    def test_partition_file_partitioner(self, tmp_path):
        graph = write_grid(tmp_path, 4, 4)
        pfile = tmp_path / "part.txt"
        pfile.write_text("\n".join(str(i % 2) for i in range(16)) + "\n")
        out = tmp_path / "o"
        cfg = base_config(
            graph, out, p=2, partitioners=("rp", "file"), partition_file=str(pfile)
        )
        doc = run_experiment(cfg)
        assert {r["partitioner"] for r in doc["runs"]} == {"rp", "file"}

    def test_partition_file_allows_arbitrary_p(self, tmp_path):
        # the internal bisection partitioners need powers of two; external
        # partition files (and rp) drive the whole pipeline at any p
        from gcnpart import PartitionConfig, normalize_adjacency, random_partition
        from gcnpart.graphio import load_graph

        graph = write_grid(tmp_path, 6, 6)
        a_hat = normalize_adjacency(load_graph(graph, "edge_list"))
        pi = random_partition(a_hat.row_nnz(), PartitionConfig(p=3, seed=2))
        pfile = tmp_path / "part3.txt"
        write_partition(pfile, pi)
        out = tmp_path / "o3"
        cfg = base_config(
            graph, out, p=3, partitioners=("rp", "file"), partition_file=str(pfile)
        )
        doc = run_experiment(cfg)
        assert {r["partitioner"] for r in doc["runs"]} == {"rp", "file"}
        assert doc["runs"][0]["p"] == 3

    def test_schema_version_present(self, tmp_path):
        cfg = base_config(write_grid(tmp_path), tmp_path / "o", partitioners=("rp",))
        doc = run_experiment(cfg)
        assert doc["schema_version"] == 1

    def test_mini_mode_end_to_end(self, tmp_path):
        cfg = base_config(
            write_grid(tmp_path),
            tmp_path / "o",
            mode="mini",
            batch_size=24,
            batches=2,
        )
        doc = run_experiment(cfg)
        assert len(doc["runs"][0]["epochs"]) == 2

    def test_directed_with_shp(self, tmp_path):
        path = tmp_path / "d.txt"
        lines = [f"{i} {(i + 1) % 12}" for i in range(12)] + [f"{i} {(i + 5) % 12}" for i in range(12)]
        path.write_text("\n".join(lines) + "\n")
        cfg = base_config(
            path, tmp_path / "o", p=2, directed=True,
            partitioners=("rp", "shp"), batch_size=6, batches=4,
        )
        doc = run_experiment(cfg)
        assert {r["partitioner"] for r in doc["runs"]} == {"rp", "shp"}

    def test_directed_mini_report_same_under_both_schedulers(self, tmp_path):
        path = tmp_path / "d.txt"
        ring = [f"{i} {(i + 1) % 16}" for i in range(16)]
        chords = [f"{i} {(i * 5 + 3) % 16}" for i in range(16)]
        path.write_text("\n".join(ring + chords) + "\n")
        out = tmp_path / "o"
        argv = [
            "--graph", str(path), "-p", "4", "--partitioner", "rp,shp", "--directed",
            "--mode", "mini", "--batch-size", "8", "--batches", "3",
            "--layers", "2", "--dims", "4,5,3", "--epochs", "2", "--seed", "6",
            "--epsilon", "0.5", "--out", str(out),
        ]
        docs = []
        for scheduler in ("round", "threads"):
            assert main(argv + ["--scheduler", scheduler]) == 0
            doc = json.loads((out / "report.json").read_text())
            assert doc["config"].pop("scheduler") == scheduler
            docs.append(doc)
        assert docs[0] == docs[1]
        assert any(e["total_words"] for r in docs[0]["runs"] for e in r["epochs"])


class TestMainExitCodes:
    def test_success_is_zero(self, tmp_path):
        graph = write_grid(tmp_path)
        code = main(
            [
                "--graph", str(graph), "-p", "2", "--partitioner", "rp",
                "--layers", "1", "--dims", "3,2", "--epochs", "1",
                "--seed", "1", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0

    def test_config_error_is_two(self, tmp_path, capsys):
        graph = write_grid(tmp_path)
        code = main(
            [
                "--graph", str(graph), "--layers", "2", "--dims", "3,2",
                "--seed", "1", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_is_one(self, tmp_path, capsys):
        code = main(
            [
                "--graph", str(tmp_path / "missing.txt"), "--seed", "1",
                "--layers", "1", "--dims", "3,2", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "gcnpart:" in capsys.readouterr().err

    def test_negative_part_id_is_one_at_its_line(self, tmp_path, capsys):
        pfile = tmp_path / "part.txt"
        pfile.write_text("0\n-1\n1\n")
        code = main(
            [
                "--graph", str(write_grid(tmp_path, 1, 3)), "-p", "2", "--partitioner", "file",
                "--partition-file", str(pfile), "--layers", "1", "--dims", "3,2",
                "--seed", "1", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert f"{pfile}:2: bad part id '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("0\n2\n1\n", ":2: bad part id '2' for p=2"),
        ("0\n1000000000000\n1\n", ":2: bad part id '1000000000000' for p=2"),
        ("1\n1\n1\n", ":0: part 0 of p=2 has no vertex"),
    ])
    def test_partition_file_is_checked_against_p(self, tmp_path, capsys, text, message):
        pfile = tmp_path / "part.txt"
        pfile.write_text(text)
        code = main(
            [
                "--graph", str(write_grid(tmp_path, 1, 3)), "-p", "2", "--partitioner", "file",
                "--partition-file", str(pfile), "--layers", "1", "--dims", "3,2",
                "--seed", "1", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert f"{pfile}{message}" in capsys.readouterr().err


class TestDirectedValidation:
    def test_asymmetric_matrix_market_requires_directed_flag(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n"
        )
        cfg = ExperimentConfig(
            graph=str(path), fmt="matrix_market", p=2, partitioners=("rp",),
            layers=1, dims=(3, 2), epochs=1, seed=1, out=str(tmp_path / "o"),
            epsilon=0.5,  # 3 lopsided vertices cannot balance at 1%
        )
        with pytest.raises(ValueError, match="asymmetric"):
            run_experiment(cfg)
        cfg.directed = True
        doc = run_experiment(cfg)
        assert doc["runs"][0]["partitioner"] == "rp"


def test_import_leaves_scipy_out():
    # numpy is the only dependency; importing scipy.sparse alone adds about
    # 20 MiB of peak RSS to every run
    src = str(Path(gcnpart.__file__).resolve().parents[1])
    code = "import sys, gcnpart, gcnpart.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 8), st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 2**32 - 1),
       st.sampled_from(["symmetric", "add", "drop", "value", "sign", "any"]))
def test_symmetry_check_equals_transpose_and_compare(n, extra_cols, seed, kind):
    # symmetric matrices, the same with one entry added or dropped, one
    # value changed or one value's sign flipped (a diagonal change keeps
    # the symmetry), any matrix, and rectangular shapes; values with signed
    # zeros, compared by their bits
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n + extra_cols)) < rng.random()
    d = rng.choice([0.0, -0.0, 1.0, 0.5, -2.25, 1e-300], mask.shape)
    if not extra_cols and kind != "any":
        mask |= mask.T
        d = np.where(np.triu(np.ones(mask.shape, dtype=bool)), d, d.T)
    pick = mask == (kind == "add") if kind in ("add", "drop") else mask
    if kind not in ("symmetric", "any") and pick.any():
        i, j = np.argwhere(pick)[rng.integers(pick.sum())]
        if kind in ("add", "drop"):
            mask[i, j] = kind == "add"
        else:
            d[i, j] = -d[i, j] if kind == "sign" else d[i, j] + 1.0
    rows, cols = np.nonzero(mask)  # in CSR order
    pattern = CsrMatrix.from_coo(*mask.shape, rows, cols)
    a = CsrMatrix(*mask.shape, pattern.row_offsets, pattern.col_indices, d[rows, cols])
    t = transpose_sparse(a)
    one_pattern = a.shape == t.shape and all(
        np.array_equal(x, y) for x, y in ((a.row_offsets, t.row_offsets), (a.col_indices, t.col_indices)))
    want = one_pattern and np.array_equal(a.values.view(np.int64), t.values.view(np.int64))
    assert is_symmetric(a) == want
    # with one pattern, the transpose is a with its values in transpose order
    order = transpose_order(a)
    assert (order is not None) == one_pattern
    if one_pattern:
        assert np.array_equal(a.values[order].view(np.int64), t.values.view(np.int64))


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# sha256 of traffic_integers(report.json) on the first seed-1 instance of
# each benchmark workload, recorded while CommPlan still stored nested send
# lists. A change that alters partitions or traffic on purpose updates
# these and says so.
PINNED_TRAFFIC = {
    "fm-grid": "e6f3347c2bd9122be9381f1daf1c45e6b100cfddb5e45e7ecd390b2a10bd2a1d",
    "fullbatch-large": "0c80512b362e4a5b66e8dcd4d770ee3f49a65b0be84095a30f593aa9ba238570",
    "minibatch-directed": "878b167c2e9c38b5bffaf285720301f93720758802fd0ddecfc6b1cc39d73102",
}


def traffic_integers(doc) -> list:
    """report.json's exact integers, run by run: the partitioner, its part
    weights, the three cuts, the plan block and each epoch's word and
    message counts. Losses and the comparison floats depend on BLAS and
    libm, so they are left out."""
    def exact(x):
        assert x == int(x)
        return int(x)

    return [
        [run["partitioner"], run["partition"]["part_weights"],
         [exact(run["cuts"][k]) for k in ("graph_cut", "hypergraph_cut", "predicted_volume_words")],
         run["plan"],
         [[e[k] for k in ("total_words", "max_words_per_proc", "total_msgs", "max_msgs_per_proc")]
          for e in run["epochs"]]]
        for run in doc["runs"]
    ]


@pytest.mark.parametrize("name", sorted(PINNED_TRAFFIC))
def test_traffic_integers_pinned(name, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS[name]
    argv = w.write_inputs(w.instance_seeds(1)[0], tmp_path)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    got = hashlib.sha256(json.dumps(traffic_integers(doc), sort_keys=True).encode()).hexdigest()
    assert got == PINNED_TRAFFIC[name]
