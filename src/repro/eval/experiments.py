"""Experiment implementations, one per table/figure (see DESIGN.md index).

All experiments are deterministic under ``seed`` and sized by ``quick``
(True = bench-friendly datasets/budgets; False = larger runs closer to the
paper's scale).
"""

from __future__ import annotations


import repro
from repro.alchemy import DataLoader, Model, Platforms
from repro.backends.fpga.power import SHELL_POWER_W, estimate_power_watts
from repro.backends.fpga.resources import (
    estimate_fpga_utilisation,
    loopback_utilisation,
)
from repro.backends.taurus import TaurusBackend, TaurusGrid
from repro.core.fusion import fuse_datasets
from repro.datasets import load_botnet
from repro.datasets.botnet import generate_botnet_flows, partial_marker_dataset
from repro.eval.baselines import train_baseline_dnn
from repro.ml.metrics import f1_score
from repro.netsim.flowmarker import PAPER_SPEC, average_marker

APPS = ("ad", "tc", "bd")


def _load_app(app: str, quick: bool, seed: int):
    from repro.distrib.runspec import APP_SPECS

    return APP_SPECS[app].table2_ref(seed, quick).materialize()


def _make_model(app: str, dataset, algorithms=("dnn",)):
    from repro.distrib.runspec import APP_SPECS

    @DataLoader
    def loader():
        return dataset

    return Model(
        {
            "optimization_metric": ["f1"],
            "algorithm": list(algorithms),
            "name": APP_SPECS[app].model,
            "data_loader": loader,
        }
    )


# --------------------------------------------------------------------------- #
# Table 2: hand-tuned baselines vs Homunculus-generated models on Taurus
# --------------------------------------------------------------------------- #
def _table2_sharded_reports(apps, budget: int, seed: int, quick: bool,
                            shards: int, launcher: "str | None",
                            shard_dir: "str | None",
                            max_retries: int = 0) -> dict:
    """Compile every Table-2 app in ONE distributed run; per-app reports.

    Each app's serial ``generate`` call searches its model at index 0,
    so the combined run pins every model's seed to the index-0
    derivation — per-app results stay bit-identical to the serial loop
    while the shard scheduler gets apps × families of parallel work.
    """
    from repro.core.compiler import model_search_seed
    from repro.core.reports import CompileReport
    from repro.distrib import ModelEntry, RunSpec, make_launcher, run_sharded
    from repro.distrib.runspec import APP_SPECS

    spec = RunSpec(
        target="taurus",
        models=[
            ModelEntry(
                name=APP_SPECS[app].model,
                dataset=APP_SPECS[app].table2_ref(seed, quick),
                metric="f1",
                algorithms=("dnn",),
                seed=model_search_seed(seed, 0),
            )
            for app in apps
        ],
        performance={"throughput": 1, "latency": 500},
        resources={"rows": 16, "cols": 16},
        budget=budget,
        seed=seed,
    )
    merged = run_sharded(
        spec,
        shards=shards,
        launcher=make_launcher(launcher or "inprocess"),
        shard_dir=shard_dir,
        max_retries=max_retries,
    )
    reports = {}
    for app in apps:
        name = APP_SPECS[app].model
        report = merged.report.models[name]
        # Re-wrap as the single-model CompileReport the serial loop hands
        # back, so downstream consumers see one report shape.
        reports[app] = CompileReport(
            target="taurus",
            constraints=merged.report.constraints,
            schedule=name,
            models={name: report},
            total_resources={k: round(v, 4) for k, v in report.resources.items()},
            feasible=report.feasible,
            seed=seed,
        )
    return reports


def run_table2(budget: int = 15, seed: int = 0, quick: bool = True, apps=APPS,
               shards: int = 1, launcher: "str | None" = None,
               shard_dir: "str | None" = None,
               max_retries: int = 0) -> list:
    """Rows: app x {baseline, homunculus} with F1 (%), params, CUs, MUs.

    ``shards > 1`` compiles all apps in one sharded run (identical
    results, lower wall clock); ``launcher`` names a
    :mod:`repro.distrib` launcher ("inprocess", "subprocess",
    "workqueue").  ``max_retries`` tunes crash tolerance (see
    :func:`repro.distrib.run_sharded`).
    """
    sharded_reports = None
    if shards > 1 or launcher is not None:
        sharded_reports = _table2_sharded_reports(
            apps, budget, seed, quick, shards, launcher, shard_dir, max_retries,
        )
    backend = TaurusBackend(TaurusGrid(16, 16))
    rows = []
    for app in apps:
        dataset = _load_app(app, quick, seed)
        average = "binary" if dataset.n_classes == 2 else "macro"

        net, scaler = train_baseline_dnn(app, dataset, seed=seed)
        pipe = backend.compile_model(net, scaler=scaler, name=f"base_{app}")
        base_f1 = f1_score(dataset.test_y, pipe.predict(dataset.test_x), average=average)
        rows.append(
            {
                "app": app,
                "variant": "baseline",
                "features": dataset.n_features,
                "n_params": net.n_params,
                "f1": 100.0 * base_f1,
                "cus": pipe.resources["cus"],
                "mus": pipe.resources["mus"],
                "topology": net.topology,
            }
        )

        if sharded_reports is not None:
            report = sharded_reports[app]
        else:
            platform = Platforms.Taurus().constrain(
                performance={"throughput": 1, "latency": 500},
                resources={"rows": 16, "cols": 16},
            )
            platform.schedule(_make_model(app, dataset))
            report = repro.generate(platform, budget=budget, seed=seed)
        best = report.best
        rows.append(
            {
                "app": app,
                "variant": "homunculus",
                "features": dataset.n_features,
                "n_params": best.n_params,
                "f1": 100.0 * best.objective,
                "cus": best.resources["cus"],
                "mus": best.resources["mus"],
                "topology": best.metadata.get("topology"),
                "report": report,
            }
        )
    return rows


def format_table2(rows: list) -> str:
    header = f"{'Application':<16}{'Features':>9}{'# NN Param':>12}{'F1 Score':>10}{'CUs':>6}{'MUs':>6}"
    lines = [header, "-" * len(header)]
    names = {"baseline": "Base", "homunculus": "Hom"}
    for row in rows:
        label = f"{names[row['variant']]}-{row['app'].upper()}"
        lines.append(
            f"{label:<16}{row['features']:>9}{row['n_params']:>12}"
            f"{row['f1']:>10.2f}{row['cus']:>6}{row['mus']:>6}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Table 3: resource scaling under different app-chaining strategies
# --------------------------------------------------------------------------- #
def run_table3(budget: int = 10, seed: int = 0, quick: bool = True) -> list:
    """Chain four copies of the AD DNN under the paper's three strategies.

    Copies of one model share a placed pipeline (the chaining glue folds
    into existing CUs), so resources must be identical across strategies.
    """
    dataset = _load_app("ad", quick, seed)
    model = _make_model("ad", dataset)
    platform = Platforms.Taurus().constrain(
        performance={"throughput": 1, "latency": 500},
        resources={"rows": 16, "cols": 16},
    )
    platform.schedule(model)
    report = repro.generate(platform, budget=budget, seed=seed)
    best = report.best
    # ``>>`` is the chaining-safe sequential operator (Python would parse
    # chained ``>`` as a comparison chain); notation strings keep the
    # paper's ``>`` form.
    strategies = {
        "DNN > DNN > DNN > DNN": model >> model >> model >> model,
        "DNN | DNN | DNN | DNN": model | model | model | model,
        "DNN > (DNN | DNN) > DNN": model >> (model | model) >> model,
    }
    rows = []
    for notation, schedule in strategies.items():
        distinct = schedule.distinct_models()
        rows.append(
            {
                "strategy": notation,
                "n_models": len(schedule.models()),
                "n_distinct": len(distinct),
                "cus": best.resources["cus"] * len(distinct),
                "mus": best.resources["mus"] * len(distinct),
            }
        )
    return rows


def format_table3(rows: list) -> str:
    header = f"{'Model':<28}{'CUs':>6}{'MUs':>6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row['strategy']:<28}{row['cus']:>6}{row['mus']:>6}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Table 4: model fusion
# --------------------------------------------------------------------------- #
def run_table4(budget: int = 10, seed: int = 0, quick: bool = True) -> list:
    """Split the AD dataset in two; compare split models vs the fused one.

    Split models each get half the switch (an 8x16 grid); the fused model
    serves both datasets on the full switch.
    """
    dataset = _load_app("ad", quick, seed)
    part_a, part_b = dataset.split_half(seed=seed)
    rows = []
    for label, ds, rows_cols in (
        ("AD: Part 1", part_a, (8, 16)),
        ("AD: Part 2", part_b, (8, 16)),
        ("AD: Fused", fuse_datasets(part_a, part_b, name="ad-fused"), (16, 16)),
    ):
        platform = Platforms.Taurus().constrain(
            performance={"throughput": 1, "latency": 500},
            resources={"rows": rows_cols[0], "cols": rows_cols[1]},
        )
        platform.schedule(_make_model("ad", ds))
        report = repro.generate(platform, budget=budget, seed=seed)
        best = report.best
        rows.append(
            {
                "application": label,
                "pcus": best.resources["cus"],
                "pmus": best.resources["mus"],
                "f1": 100.0 * best.objective,
            }
        )
    return rows


def format_table4(rows: list) -> str:
    header = f"{'Application':<14}{'PCUs':>6}{'PMUs':>6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row['application']:<14}{row['pcus']:>6}{row['pmus']:>6}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Table 5: FPGA testbed resource/power reporting
# --------------------------------------------------------------------------- #
def run_table5(table2_rows: "list | None" = None, budget: int = 15,
               seed: int = 0, quick: bool = True) -> list:
    """FPGA testbed figures for Table 2's six models.

    Reports LUT/FF/BRAM utilisation (%) and board power (W), plus the
    loopback-shell row.  Both are functions of a model's layer topology
    alone, which every Table-2 row records, so nothing is retrained.
    """
    if table2_rows is None:
        table2_rows = run_table2(budget=budget, seed=seed, quick=quick)
    shell = loopback_utilisation()
    rows = [
        {
            "application": "Loopback",
            "model": "-",
            "lut_pct": shell["lut_pct"],
            "ff_pct": shell["ff_pct"],
            "bram_pct": shell["bram_pct"],
            "power_w": SHELL_POWER_W,
        }
    ]
    names = {"baseline": "Base", "homunculus": "Hom"}
    for row in table2_rows:
        utilisation = estimate_fpga_utilisation(row["topology"])
        rows.append(
            {
                "application": f"{names[row['variant']]}-{row['app'].upper()}",
                "model": "DNN",
                "lut_pct": utilisation["lut_pct"],
                "ff_pct": utilisation["ff_pct"],
                "bram_pct": utilisation["bram_pct"],
                "power_w": estimate_power_watts(utilisation),
                "topology": row["topology"],
            }
        )
    return rows


def format_table5(rows: list) -> str:
    header = (
        f"{'Application':<14}{'Model':>6}{'LUT%':>8}{'FFs%':>8}"
        f"{'BRAM%':>8}{'Power (W)':>11}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['application']:<14}{row['model']:>6}{row['lut_pct']:>8.2f}"
            f"{row['ff_pct']:>8.2f}{row['bram_pct']:>8.2f}{row['power_w']:>11.3f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figure 4: BO regret for the AD DNN
# --------------------------------------------------------------------------- #
def run_fig4(budget: int = 20, seed: int = 0, quick: bool = True) -> dict:
    """Per-iteration F1 (the dots) plus the incumbent curve."""
    dataset = _load_app("ad", quick, seed)
    platform = Platforms.Taurus().constrain(
        performance={"throughput": 1, "latency": 500},
        resources={"rows": 16, "cols": 16},
    )
    platform.schedule(_make_model("ad", dataset))
    report = repro.generate(platform, budget=budget, seed=seed)
    optimization = report.best.optimization
    return {
        "iterations": list(range(1, len(optimization.history) + 1)),
        "f1_scores": [100.0 * e.objective for e in optimization.history],
        "feasible": [e.feasible for e in optimization.history],
        "incumbent": [
            None if v is None else 100.0 * v for v in optimization.incumbent_curve()
        ],
        "report": report,
    }


def format_fig4(result: dict) -> str:
    lines = [f"{'Iter':>5}{'F1':>8}{'Feasible':>10}{'Best so far':>13}",
             "-" * 36]
    for i, f1, feas, inc in zip(
        result["iterations"], result["f1_scores"], result["feasible"],
        result["incumbent"],
    ):
        inc_text = f"{inc:.2f}" if inc is not None else "-"
        lines.append(f"{i:>5}{f1:>8.2f}{str(feas):>10}{inc_text:>13}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figure 6: botnet vs benign flowmarker histograms
# --------------------------------------------------------------------------- #
def run_fig6(n_flows: int = 400, seed: int = 0) -> dict:
    """Class-averaged packet-length and inter-arrival histograms."""
    flows = generate_botnet_flows(n_flows, seed=seed + 13)
    botnet_names = {"storm", "waledac"}
    malicious = [f for f in flows if f.label in botnet_names]
    benign = [f for f in flows if f.label not in botnet_names]
    spec = PAPER_SPEC
    avg_mal = average_marker(malicious, spec)
    avg_ben = average_marker(benign, spec)
    return {
        "pl_bins": list(range(1, spec.pl_bins + 1)),
        "ipt_bins": list(range(1, spec.ipt_bins + 1)),
        "benign_pl": avg_ben[: spec.pl_bins].tolist(),
        "malicious_pl": avg_mal[: spec.pl_bins].tolist(),
        "benign_ipt": avg_ben[spec.pl_bins :].tolist(),
        "malicious_ipt": avg_mal[spec.pl_bins :].tolist(),
        "n_benign": len(benign),
        "n_malicious": len(malicious),
    }


def format_fig6(result: dict) -> str:
    lines = ["Avg packet-length histogram (bin size 64 B):",
             f"{'Bin':>5}{'Benign':>10}{'Malicious':>11}"]
    for i, (b, m) in enumerate(zip(result["benign_pl"], result["malicious_pl"]), 1):
        lines.append(f"{i:>5}{b:>10.2f}{m:>11.2f}")
    lines.append("Avg inter-arrival-time histogram (bin size 512 s):")
    lines.append(f"{'Bin':>5}{'Benign':>10}{'Malicious':>11}")
    for i, (b, m) in enumerate(zip(result["benign_ipt"], result["malicious_ipt"]), 1):
        lines.append(f"{i:>5}{b:>10.2f}{m:>11.2f}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figure 7: KMeans V-measure under varying MAT budgets
# --------------------------------------------------------------------------- #
def run_fig7(budget: int = 12, seed: int = 0, quick: bool = True,
             mat_budgets=(1, 2, 3, 4, 5)) -> dict:
    """One Homunculus KMeans search per MAT budget (K1..K5).

    The operator-selected clustering features (packet size, protocol,
    destination port) are used — the random high-cardinality header fields
    carry no cluster structure (see ``repro.datasets.iot``).
    """
    from repro.datasets.iot import CLUSTERING_FEATURES

    dataset = _load_app("tc", quick, seed).subset_features(list(CLUSTERING_FEATURES))
    series = {}
    for mats in mat_budgets:
        @DataLoader
        def loader(ds=dataset):
            return ds

        model = Model(
            {
                "optimization_metric": ["v_measure"],
                "algorithm": ["kmeans"],
                "name": f"kmeans{mats}",
                "data_loader": loader,
            }
        )
        platform = Platforms.Tofino().constrain(resources={"mats": mats})
        platform.schedule(model)
        report = repro.generate(platform, budget=budget, seed=seed)
        best = report.best
        series[f"KMeans{mats}"] = {
            "mats": mats,
            "v_scores": [100.0 * e.objective for e in best.optimization.history],
            "best_v": 100.0 * best.objective,
            "n_clusters": best.best_config.get("n_clusters"),
            "used_mats": best.resources["mats"],
        }
    return {"series": series, "n_classes": dataset.n_classes}


def format_fig7(result: dict) -> str:
    lines = [f"{'Config':>10}{'MATs':>6}{'Clusters':>10}{'Best V':>9}  per-iteration V",
             "-" * 70]
    for name, data in result["series"].items():
        trace = " ".join(f"{v:.1f}" for v in data["v_scores"])
        lines.append(
            f"{name:>10}{data['mats']:>6}{data['n_clusters']:>10}"
            f"{data['best_v']:>9.2f}  {trace}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# §5.1.1: reaction time — per-packet partial histograms vs full flows
# --------------------------------------------------------------------------- #
def run_reaction_time(seed: int = 0, quick: bool = True,
                      max_packets: int = 16) -> dict:
    """F1 of the BD model vs number of packets seen so far.

    Training uses full-flow markers; evaluation slices per-packet partial
    markers by position, showing how quickly the per-packet model becomes
    accurate compared to waiting 3 600 s for flow completion.
    """
    n_train, n_test = (300, 150) if quick else (500, 250)
    # Only the training split matters here; evaluation flows are generated
    # separately below so we can slice them by packet position.
    dataset = load_botnet(
        n_train_flows=n_train, n_test_flows=2, seed=seed + 13,
        per_packet_test=False,
    )
    net, scaler = train_baseline_dnn("bd", dataset, seed=seed)
    backend = TaurusBackend()
    pipe = backend.compile_model(net, scaler=scaler, name="bd_reaction")
    test_flows = generate_botnet_flows(n_test, seed=seed + 99)
    X, y, positions = partial_marker_dataset(test_flows, max_packets=max_packets)
    pred = pipe.predict(X)
    curve = []
    for k in range(1, max_packets + 1):
        mask = positions == k
        if mask.sum() < 10:
            break
        curve.append(
            {
                "packets_seen": k,
                "f1": 100.0 * f1_score(y[mask], pred[mask]),
                "n_samples": int(mask.sum()),
            }
        )
    full_flow_f1 = 100.0 * f1_score(y, pred)
    return {
        "curve": curve,
        "overall_partial_f1": full_flow_f1,
        "per_packet_latency_ns": pipe.performance.latency_ns,
        "flow_completion_latency_s": 3600.0,
    }


def format_reaction_time(result: dict) -> str:
    lines = [f"{'Packets seen':>13}{'F1':>8}{'Samples':>9}", "-" * 30]
    for point in result["curve"]:
        lines.append(
            f"{point['packets_seen']:>13}{point['f1']:>8.2f}{point['n_samples']:>9}"
        )
    lines.append(
        f"reaction time: {result['per_packet_latency_ns']:.0f} ns per packet vs "
        f"{result['flow_completion_latency_s']:.0f} s flow completion"
    )
    return "\n".join(lines)
