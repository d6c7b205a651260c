"""Byte gate: outputs must match digests taken from a known-good build.

Some of the benchmark's golden digests (``perfbench/golden.json``) are
replayed through the benchmark's own workload code, read-only. The benchmark
keeps only completed ``mission-small`` flights, so the telemetry CSV and
report JSON of aborting flights are pinned here.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

from skyway_delivery import (
    assign_levels,
    export_telemetry,
    generate_scenario,
    plan_ndf,
    serialize_report,
    simulate_mission,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

# A few entries per workload keep the whole file near 3 s.
REPLAYED = {
    "mission-small": ("0", "7", "42", "117"),
    "ndf-metro": ("3",),
    "compare-k9": ("5", "18"),
}

# (nodes, packages, scenario seed, battery J, release dwell s, telemetry step s)
# -> SHA-256 of the telemetry CSV and of the report JSON. Each battery runs
# dry in a chosen phase of the NDF mission.
ABORTS = {
    (12, 3, 1, 10.0, 2.0, 0.1): (  # leg 1, ascent
        "dbba68f01233b64c780f42b9f55224768c32fcdf318bae4056fd00494c6af1f4",
        "80262466bf09cec2281cea4748056e07dbfb3979905398e5c8a9a4a9abcb74c4",
    ),
    (12, 3, 1, 900.0, 2.0, 0.1): (  # leg 1, cruise
        "a213ed6bc5a5a6fb183f67d9d7ee7f2f113189b56833a31c9e5c384abfc96969",
        "28ba97311811822dabc347057d0ba644ebc47b6fad4e82932a02dc9f5d0f7c0a",
    ),
    (12, 3, 1, 2460.0, 2.0, 0.1): (  # leg 1, release descent
        "83bc3348ff5eb90c650c50bb988b41cdf2beddd0cab0b478882c3a3e14c5b0b9",
        "b6836833b5b91450267d8a40786762f58479cfee180919bd63b8f79c7d8ca2c9",
    ),
    (12, 3, 1, 2545.0, 2.0, 0.1): (  # leg 2, ascent
        "b26c6af90dd9343e925ecd6c16f55e2834cb5429e6cc7bd17225c53b8d7559f6",
        "2c3186380ed9d1a6b87ac15cdc723448c7b23269ea8c1827fd94651370e47b55",
    ),
    (12, 3, 1, 4079.0, 2.0, 0.1): (  # leg 2, release descent
        "e17c6f68030c5439da7e0fa022d18294fe4c8914d28b4ed512a154f922761501",
        "a029a77791bd1afd2daa4ce4c83463f4015a7c6241e8f70b5db6ebe56c21bc19",
    ),
    (12, 3, 1, 7800.0, 2.0, 0.1): (  # leg 3, release descent
        "ee22e14f7eda70b24b3d23d1e66cd6b0d944f77835e89105ec9b3aefe7c23048",
        "fe60070a2ed3eaca2311d8cce6026ae950ad2ce52bdf6f52fe62528bfb3b6265",
    ),
    (12, 3, 1, 7900.0, 2.0, 0.1): (  # leg 4, ascent
        "088c985831ea04c8eaa0b4f64e0b3ebd4e6e253956671b16b46c2c49e2490195",
        "8aa84ba1c98a377ba19a72b57b5487ec473d9d5d191c423847d852d5c682f214",
    ),
    (12, 3, 1, 8500.0, 2.0, 0.1): (  # leg 4, cruise
        "5562e79f6486eb19e60ea18059dd72483308a6d444de2ec9210eca929537c135",
        "1806c9ba894967574cbe51eef9eaaf7dc1f71ed60646d8f9f3aaaa9a6b6505d8",
    ),
    (12, 3, 1, 9689.5, 2.0, 0.1): (  # leg 4, landing descent
        "aa4b50ce569ac2a78885c0d81670edeaa3a2bb6e21fcbda72442adf27cf4e322",
        "2ea84371239ae129bc283e908e3a28893a595cb2ae0c80cba567481ac35cb9dc",
    ),
    (8, 2, 9, 1894.0, 2.0, 0.1): (  # leg 2, release descent
        "c2c3394a7628921e6baa3592f477d9f2162ce2026e4f1bb3d46ac8cd0dbb1f1a",
        "5fc515d8ea2992faecacc288f60533f34d9d10891ffacb7b6c08f3dcec356804",
    ),
    (8, 2, 9, 1895.8, 2.0, 0.1): (  # leg 3, descent
        "8ab6f42a4b9c6d3541c6f009d4f5e73736a751970b46ad5f3a3a841f5eeb827e",
        "a90e55d4a685580ead98ba8f7c274f6fe24a4dc04f64507083ccc121399584ad",
    ),
    (8, 2, 9, 2950.0, 2.0, 0.1): (  # leg 3, landing descent
        "b61d2f5e7009a2bde68522786c34dfe138541c281b150c6bb909bc3956772aa6",
        "00382c39b54498fed24b328b815c43541ea62c8ad4185913edd230dce3a47a68",
    ),
    (12, 3, 2, 11180.0, 0.0, 0.1): (  # leg 4, landing descent
        "db151a288f437d2eda5eb0fa9a7aed5c3ec8114c2beb222ee33abb0e4eeb2084",
        "7382b409bad6367f7f09a5dcbecff90d9dda54b1f7c376b686e5056f5518c692",
    ),
    (12, 3, 2, 5850.0, 3.7, 0.25): (  # leg 1, release descent
        "8fb10c63458aed929677d187abd8eae12d60290edfad43b9cad5752285f9a910",
        "8e385a48a1d7d63e3ab97a9485165e7f85d1e4305edf5d399e33f3b087f93b19",
    ),
    (12, 3, 2, 4000.0, 2.0, 0.07): (  # leg 1, cruise
        "ba749f748f75bfc769639790db952d16b420308f26f38b76fa409cfd5cc535ea",
        "f3ab55b63b1c3699c4db023e0e0312722cac3a031174446bbd8fa9bfbdd767f3",
    ),
    (20, 4, 5, 700.0, 5.0, 0.1): (  # leg 1, release descent
        "9e1bdbb4261f7cd6e5e02e388aedfddd4a340a03c0d482a1b2bff6c17c6bf0f6",
        "309569a731424d3e0d4218cb4da0b8d256c92b1884574dcd4dfd008f9e18b727",
    ),
    (20, 4, 5, 6700.0, 2.0, 0.1): (  # leg 4, release descent
        "c9a79b607f54994ce94df53c2108c9c15826169387aa41480cb6c147c067beae",
        "08cf1e1be990dfb46fc6b21347fbb840636ca38b51a861352e73953d31f147a1",
    ),
    (20, 4, 5, 8815.0, 2.0, 0.5): (  # leg 5, landing descent
        "880f3b7a9396d586ed5c56fa1f24c0f904a932ff6ff60bdf4b2c1804482cd390",
        "a1051a38d09a1dd38f92bd9d931e9f1dec894fc6c3d4ecc4dec81cb636b1dd35",
    ),
    (30, 5, 11, 13650.0, 2.0, 0.1): (  # leg 5, release descent
        "2b68ad3c7dc65bf3a06882599889205c8a7d15f707813b20e102e4ca75cdd94f",
        "8df601048fca8545a3936611dbd6b43366e02ade5bb735b53aad8c58fc825f27",
    ),
    (12, 3, 1, 20.118, 2.0, 0.1): (  # leg 1, ascent ends dry, cruise
        "18bd9d572c5bd6910202a77a078ca434c2a472c060c15d22c6d02e67ec8554a2",
        "c2f0ae7f74af3cf772da526142c385da71b78725f95b909ec3c22f7248db6c60",
    ),
    (12, 3, 1, 2538.550796002144, 2.0, 0.1): (  # leg 1 ends near dry, leg 2 ascent
        "5f62224558e652bd01709d5017aaf5261c2473d9b358c7bc89614bdbd4815e77",
        "73f3e538940b203c168318bc3ac829ae9ab1e8a1e640970c8002fe3920face33",
    ),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return wl.load_golden()


@pytest.mark.parametrize(("workload", "key"),
                         [(name, key) for name, keys in REPLAYED.items() for key in keys])
def test_benchmark_golden_digests(golden, workload, key):
    runner = wl.WORKLOADS[workload]
    item = (key, runner.scenario_text(int(key)))
    out = runner.fly(item)
    assert runner.digests(out) == golden[workload][key]
    assert runner.check(item, out, golden[workload]).ok


@pytest.mark.parametrize("name", wl.BUNDLED)
def test_cli_run_golden_digests(golden, monkeypatch, tmp_path, name):
    monkeypatch.setattr(wl, "OUT_DIR", tmp_path)
    runner = wl.CliWorkload("cli-cold")
    runner.setup(golden["cli-cold"], 0)
    try:
        item = ("run", name)
        assert runner.digests(item, runner.fly(item)) == golden["cli-cold"][runner.key(item)]
    finally:
        runner.close()


@pytest.mark.parametrize("spec", sorted(ABORTS), ids=lambda spec: "-".join(map(str, spec)))
def test_aborted_flight_bytes(spec):
    nodes, packages, seed, battery, dwell, step = spec
    scenario = generate_scenario(nodes, packages, seed)
    drone = dataclasses.replace(scenario.drone, battery_capacity=battery)
    plan = plan_ndf(scenario.network, scenario.source, scenario.packages)
    log, report = simulate_mission(
        scenario.network, plan, assign_levels(plan), drone, scenario.rig,
        scenario.packages, release_dwell=dwell, telemetry_step=step)
    assert not report.completed
    assert (sha(export_telemetry(log)), sha(serialize_report(report))) == ABORTS[spec]
