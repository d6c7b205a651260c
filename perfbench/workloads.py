"""Workloads of the skyway-delivery benchmark.

A workload turns the benchmark seed into a pool of inputs during set-up
(untimed) and then flies one mission per ``fly`` call (timed). ``check``
runs after the timer stops: it hashes the bytes a user sees for the
mission and compares them with the golden digests in ``golden.json``,
captured from the seed implementation by ``capture_golden.py``.

Generated scenarios are drawn from a fixed universe of scenario seeds, the
ones that have golden digests, so every input any benchmark seed can pick
is checked byte for byte.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(SRC))
try:
    import skyway_delivery as sd
except ModuleNotFoundError as exc:
    raise SystemExit(f"cannot import skyway_delivery from {SRC}: {exc}") from None
if not Path(sd.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"skyway_delivery must come from {SRC}, found {sd.__file__}")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import skyway_delivery; "
                "print(time.perf_counter() - t)")
END_TOLERANCE_M = 1e-9


def sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package is imported from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe_import() -> float:
    """Seconds a fresh interpreter spends importing skyway_delivery."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout)


def probe_interpreter() -> float:
    """Wall seconds for a bare ``python -c pass`` child."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def plan_json(plan) -> str:
    """The plan as ``skyway-delivery plan --json`` prints it."""
    doc = {
        "strategy": plan.strategy_label,
        "source": plan.source,
        "release_order": list(plan.release_order),
        "legs": [{"nodes": list(leg.path.nodes), "length": leg.path.total_length,
                  "release": leg.release} for leg in plan.legs],
        "total_distance": sd.plan_total_distance(plan),
    }
    return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class Check:
    ok: bool
    aborted: int  # flights that ran out of battery: a correct result, not a failure


class GeneratedWorkload:
    """Missions over seeded ``generate_scenario`` networks, fed as JSON text."""

    in_children = False

    def __init__(self, name: str, nodes: int, packages: int, pool: int,
                 battery_capacity: float | None = None):
        self.name = name
        self.nodes = nodes
        self.packages = packages
        self.pool = pool
        self.battery_capacity = battery_capacity

    def scenario_text(self, scenario_seed: int) -> str:
        scenario = sd.generate_scenario(self.nodes, self.packages, scenario_seed)
        if self.battery_capacity is not None:
            drone = dataclasses.replace(scenario.drone, battery_capacity=self.battery_capacity)
            scenario = dataclasses.replace(scenario, drone=drone)
        return sd.serialize_scenario(scenario)

    def setup(self, golden: dict, seed: int) -> list[tuple[str, str]]:
        universe = sorted(int(key) for key in golden)
        picked = random.Random(f"{self.name}/{seed}").sample(universe, self.pool)
        return [(str(s), self.scenario_text(s)) for s in picked]

    @staticmethod
    def span_name(item) -> str:
        return "mission"

    def close(self) -> None:
        pass


class MissionWorkload(GeneratedWorkload):
    """parse -> plan_ndf -> simulate_mission -> export_telemetry + serialize_report."""

    def fly(self, item):
        scenario = sd.parse_scenario(item[1])
        plan = sd.plan_ndf(scenario.network, scenario.source, scenario.packages,
                           drone=scenario.drone, level_count=scenario.rig.level_count)
        log, report = sd.simulate_mission(scenario.network, plan, sd.assign_levels(plan),
                                          scenario.drone, scenario.rig, scenario.packages)
        return scenario, plan, report, sd.export_telemetry(log), sd.serialize_report(report)

    @staticmethod
    def digests(out) -> dict:
        _, plan, _, csv_text, report_json = out
        return {"plan": sha(plan_json(plan)), "report": sha(report_json),
                "telemetry": sha(csv_text)}

    def check(self, item, out, golden: dict) -> Check:
        scenario, _, report, _, _ = out
        ok = self.digests(out) == golden[item[0]]
        if report.completed:
            source = scenario.network.node(scenario.source)
            home = (source.x, source.y, source.rooftop_height)
            ok = ok and math.dist(report.end_position, home) <= END_TOLERANCE_M
        return Check(ok, 0 if report.completed else 1)


class CompareWorkload(GeneratedWorkload):
    """parse -> compare_strategies (NDF + exhaustive, both flown, no export)."""

    def fly(self, item):
        return sd.compare_strategies(sd.parse_scenario(item[1]))

    @staticmethod
    def digests(out) -> dict:
        return {"compare": sha(json.dumps(dataclasses.asdict(out), sort_keys=True))}

    def check(self, item, out, golden: dict) -> Check:
        ok = (self.digests(out) == golden[item[0]]
              and out.optimal.total_distance <= out.ndf.total_distance + END_TOLERANCE_M)
        return Check(ok, (not out.ndf.completed) + (not out.optimal.completed))


CLI_ARGS = {
    "plan": [],
    "run": ["--telemetry", "telemetry.csv", "--report", "report.json"],
    "compare": [],
}
CLI_OUTPUT_FILES = ("telemetry.csv", "report.json")
BUNDLED = ("demo3", "n1", "n2")


class CliWorkload:
    """One ``python -m skyway_delivery`` child per mission, one at a time."""

    in_children = True

    def __init__(self, name: str):
        self.name = name
        self.workdir: Path | None = None

    def setup(self, golden: dict, seed: int) -> list[tuple[str, str]]:
        self.close()
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        for name in BUNDLED:
            text = (ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
            (self.workdir / f"{name}.json").write_text(text, encoding="utf-8")
        items = [(command, name) for command in CLI_ARGS for name in BUNDLED]
        random.Random(f"{self.name}/{seed}").shuffle(items)
        return items

    def fly(self, item):
        command, name = item
        for leftover in CLI_OUTPUT_FILES:
            (self.workdir / leftover).unlink(missing_ok=True)
        return subprocess.run(
            [sys.executable, "-m", "skyway_delivery", command, f"{name}.json",
             *CLI_ARGS[command]],
            cwd=self.workdir, env=child_env(), capture_output=True)

    def digests(self, item, out) -> dict:
        found = {"stdout": sha(out.stdout), "exit": out.returncode}
        for name in CLI_OUTPUT_FILES:
            path = self.workdir / name
            if path.exists():
                found[name] = sha(path.read_bytes())
        return found

    @staticmethod
    def span_name(item) -> str:
        return f"cli.{item[0]}"

    @staticmethod
    def key(item) -> str:
        return " ".join(item)

    def check(self, item, out, golden: dict) -> Check:
        ok = self.digests(item, out) == golden[self.key(item)]
        return Check(ok, int(out.returncode == 1))

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mission-small": MissionWorkload("mission-small", nodes=50, packages=3, pool=64),
    "compare-k9": CompareWorkload("compare-k9", nodes=500, packages=9, pool=12),
    # The generated drone carries 50 kJ, which aborts most 5000-node missions;
    # with 250 kJ every mission in the universe completes, so the whole
    # pipeline runs.
    "ndf-metro": MissionWorkload("ndf-metro", nodes=5000, packages=9, pool=8,
                                 battery_capacity=250_000.0),
    "cli-cold": CliWorkload("cli-cold"),
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
