"""Command-line entry point.

Eight subcommands cover the full workflow: generate instances and
datasets, run solvers, train and evaluate the network, probe objective
landscapes, sweep constant fields, and benchmark methods side by side.
Every run writes a resolved-config JSON next to its primary output so
results can be reproduced from the artifacts alone.  Relative output
paths land in $QUBOLAB_OUTDIR when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import datagen, evaluate, io, model as model_mod, qubo, solvers

OUTDIR_ENV = "QUBOLAB_OUTDIR"


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), path)


def _write_config(args: argparse.Namespace, primary_out: str) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    resolved["subcommand"] = args.func.__name__.removeprefix("_cmd_").replace("_", "-")
    stem, _ = os.path.splitext(primary_out)
    with open(stem + ".config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _floats_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return float(parts[0]), float(parts[1])


def _paths_list(text: str) -> list[str]:
    return [p for p in text.split(",") if p]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen_instance(args) -> None:
    if args.kind == "random-dense":
        if args.k is None:
            raise ValueError("--kind random-dense requires --k")
        inst = qubo.gen_random_dense(args.k, args.seed, args.scale)
        b = None
    elif args.kind == "lattice-laplacian":
        if args.side is None:
            raise ValueError("--kind lattice-laplacian requires --side")
        inst = qubo.gen_lattice_laplacian(args.side)
        b = None
    else:
        if args.side is None:
            raise ValueError("--kind ising requires --side")
        adjacency = qubo.lattice_adjacency(args.side)
        inst, b = qubo.gen_ising(adjacency, args.b_scalar)
    out = _resolve_out(args.out)
    io.write_instance(out, inst)
    if b is not None:
        io.write_vector(os.path.splitext(out)[0] + ".b.txt", b)
    _write_config(args, out)
    print(f"wrote {out} (k={inst.k}, nnz={inst.nnz})")


def _cmd_gen_data(args) -> None:
    inst = io.read_instance(args.instance)
    params = datagen.DataGenParams(
        sigma=args.sigma, mu=args.mu, eps_bin=args.eps,
        refine_steps=args.refine_steps, seed=args.seed,
    )
    dataset = datagen.generate_dataset(
        inst, args.n, params, split=args.split,
        instance_ref=os.path.basename(args.instance),
    )
    out = _resolve_out(args.out)
    datagen.write_dataset(dataset, out)
    _write_config(args, out)
    n_train = len(dataset.indices("train"))
    print(f"wrote {out} ({len(dataset)} pairs, {n_train} train)")


def _cmd_solve(args) -> None:
    inst = io.read_instance(args.instance)
    b = io.read_vector(args.b)
    if args.method == "exhaustive":
        result = solvers.exhaustive_solve(inst, b, cap=args.cap)
    elif args.method == "tabu":
        params = solvers.TabuParams(
            max_steps=args.steps, tabu_tenure=args.tenure,
            patience=None if args.patience == 0 else args.patience,
        )
        result = solvers.tabu_solve(inst, b, params)
    else:
        params = solvers.SabParams(
            steps=args.steps, dt=args.dt, a0=args.a0, c0=args.c0,
            seed=args.solver_seed,
        )
        result = solvers.sab_solve(inst, b, params)
    bits = "[" + ",".join(str(int(v)) for v in result.x_best) + "]"
    print(f"x={bits} f={result.f_best!r} "
          f"({result.solver}, {result.iterations} iterations, "
          f"{result.elapsed_ms:.2f} ms, {result.termination})")
    out = _resolve_out(args.out)
    with open(out, "w") as fh:
        json.dump(result.to_json(), fh, indent=2)
        fh.write("\n")
    _write_config(args, out)


def _cmd_train(args) -> None:
    inst = io.read_instance(args.instance)
    dataset = datagen.read_dataset(args.data, instance=inst)
    config = model_mod.BpgnnConfig(
        d=args.width, layers=args.layers, eps_step=args.eps_step,
        dropout=args.dropout, use_qubo_features=not args.no_qubo_features,
        seed=args.model_seed,
    )
    net = model_mod.BpgnnModel(config, inst)
    train_config = model_mod.TrainConfig(
        lr=args.lr, weight_decay=args.weight_decay, dropout=args.dropout,
        epochs=args.epochs, batch_size=args.batch, seed=args.train_seed,
    )
    out = _resolve_out(args.out)
    history_path = _resolve_out(args.history) if args.history else \
        os.path.splitext(out)[0] + ".history.csv"
    net, history = model_mod.train(net, dataset, train_config,
                                   history_path=history_path)
    model_mod.save_checkpoint(net, out)
    _write_config(args, out)
    last = history[-1]
    print(f"wrote {out} ({len(history)} epochs, "
          f"val_acc={last['val_acc']:.4f}, val_relqubo={last['val_relqubo']:.4g})")


def _cmd_eval(args) -> None:
    inst = io.read_instance(args.instance)
    dataset = datagen.read_dataset(args.data, instance=inst)
    methods = args.methods.split(",")
    net = None
    if any(m in ("bpgnn", "bpgnn+ts") for m in methods):
        if args.model is None:
            raise ValueError("neural methods require --model")
        net = model_mod.load_checkpoint(args.model, inst)
    records = [
        evaluate.evaluate_method(m, inst, dataset, net, split=args.split)
        for m in methods
    ]
    out = _resolve_out(args.out)
    evaluate.write_eval_records(records, out)
    _write_config(args, out)
    for rec in records:
        print(f"{rec.method}: acc={rec.accuracy:.4f} "
              f"rel_qubo={rec.rel_qubo:.4g} time={rec.elapsed_ms:.2f} ms")


def _cmd_probe(args) -> None:
    inst = io.read_instance(args.instance)
    b = io.read_vector(args.b) if args.b else np.zeros(inst.k)
    grid = evaluate.probe_landscape(
        inst, b, args.seed, s_range=args.s_range, t_range=args.t_range,
        resolution=args.resolution, cap=args.cap,
    )
    out = _resolve_out(args.out)
    evaluate.write_landscape(grid, out)
    _write_config(args, out)
    print(f"wrote {out} ({args.resolution}x{args.resolution} cells, "
          f"{len(np.unique(grid.phi))} distinct phi values)")


def _cmd_sweep(args) -> None:
    inst = io.read_instance(args.instance)
    sweep = evaluate.ising_sweep(inst, (args.b_min, args.b_max), args.samples,
                                 cap=args.cap)
    out = _resolve_out(args.out)
    evaluate.write_sweep(sweep, out)
    _write_config(args, out)
    print(f"wrote {out} ({args.samples} samples, "
          f"{len(sweep.change_points)} change points)")


def _cmd_bench(args) -> None:
    instances = [io.read_instance(p) for p in args.instances]
    datasets = [
        datagen.read_dataset(p, instance=inst)
        for p, inst in zip(args.datasets, instances)
    ]
    methods = args.methods.split(",")
    models = None
    if args.models:
        models = [
            model_mod.load_checkpoint(p, inst)
            for p, inst in zip(args.models, instances)
        ]
    out = _resolve_out(args.out)
    rows = evaluate.benchmark(instances, datasets, methods, out, models=models)
    _write_config(args, out)
    for row in rows:
        print(f"{row['method']}: acc={row['acc_mean']:.4f}±{row['acc_std']:.4f} "
              f"rel_qubo={row['relqubo_mean']:.4g}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubolab",
        description="QUBO workbench: instances, solvers, data, training, probes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-instance", help="write a problem matrix and metadata")
    p.add_argument("--kind", required=True,
                   choices=["random-dense", "lattice-laplacian", "ising"])
    p.add_argument("--k", type=int, default=None, help="size for random-dense")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--side", type=int, default=None, help="grid side length")
    p.add_argument("--b-scalar", type=float, default=0.0,
                   help="constant-field strength for ising")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_instance)

    p = sub.add_parser("gen-data", help="generate an observation-solution dataset")
    p.add_argument("--instance", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1e-3)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--refine-steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=_floats_pair, default=(0.8, 0.2))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("solve", help="run one solver on one observed vector")
    p.add_argument("--instance", required=True)
    p.add_argument("--b", required=True, help="observed-vector file")
    p.add_argument("--method", required=True, choices=["exhaustive", "tabu", "sab"])
    p.add_argument("--cap", type=int, default=solvers.EXHAUSTIVE_CAP)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tenure", type=int, default=10)
    p.add_argument("--patience", type=int, default=50,
                   help="tabu early-stop patience; 0 disables")
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--a0", type=float, default=1.0)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--solver-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("train", help="train the network on a dataset")
    p.add_argument("--instance", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--eps-step", type=float, default=0.5)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--no-qubo-features", action="store_true")
    p.add_argument("--model-seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--train-seed", type=int, default=0)
    p.add_argument("--history", default=None,
                   help="history CSV path (default: derived from --out)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score methods against dataset labels")
    p.add_argument("--instance", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--methods", default="bpgnn,bpgnn+ts")
    p.add_argument("--split", default="val", choices=["train", "val"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("probe", help="map the minimizer over a 2-plane of b")
    p.add_argument("--instance", required=True)
    p.add_argument("--b", default=None, help="base observed vector (default zeros)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s-range", type=_floats_pair, default=(-3.0, 3.0))
    p.add_argument("--t-range", type=_floats_pair, default=(-3.0, 3.0))
    p.add_argument("--resolution", type=int, default=41)
    p.add_argument("--cap", type=int, default=solvers.EXHAUSTIVE_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("sweep", help="sweep a constant field and find jumps")
    p.add_argument("--instance", required=True)
    p.add_argument("--b-min", type=float, required=True)
    p.add_argument("--b-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--cap", type=int, default=solvers.EXHAUSTIVE_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="compare methods across realizations")
    p.add_argument("--instances", type=_paths_list, required=True)
    p.add_argument("--datasets", type=_paths_list, required=True)
    p.add_argument("--methods", default="tabu,sab")
    p.add_argument("--models", type=_paths_list, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
