from __future__ import annotations

import dataclasses
import json
import math

import pytest

from skyway_delivery import (
    EXHAUSTIVE_PACKAGE_CAP,
    generate_scenario,
    parse_scenario,
    plan_ndf,
    serialize_scenario,
    simulate_mission,
)
from skyway_delivery import cli
from skyway_delivery.cli import cli_main, compare_strategies
from skyway_delivery.planner import PLANNERS


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scenario_file(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(serialize_scenario(scenario), encoding="utf-8", newline="")
    return str(path)


def test_plan_n1_human_output(capsys, scenario_dir):
    code, out, err = run_cli(capsys, "plan", str(scenario_dir / "n1.json"))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "strategy: ndf"
    assert lines[1] == "source: S"
    assert lines[2] == "release order: p1 p2 p3"
    assert lines[3] == "leg 1: [S -> A] 50.000 m  release p1"
    assert lines[6] == "leg 4: [C -> B -> S] 150.000 m  return"
    assert lines[7] == "total distance: 330.623 m"


def test_plan_json_output(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "plan", str(scenario_dir / "n1.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] == "ndf"
    assert doc["release_order"] == ["p1", "p2", "p3"]
    assert doc["total_distance"] == pytest.approx(330.6225774829855)
    assert doc["legs"][0] == {"nodes": ["S", "A"], "length": 50.0, "release": "p1"}
    assert doc["legs"][-1]["release"] is None


def test_plan_without_packages(capsys, scenario_dir, tmp_path):
    scenario = parse_scenario((scenario_dir / "n1.json").read_text())
    empty = dataclasses.replace(scenario, packages=())
    path = scenario_file(tmp_path, empty)
    code, out, _ = run_cli(capsys, "plan", path)
    assert code == 0
    assert "release order: (none)" in out
    assert "leg 1: [S] 0.000 m  return" in out
    assert "total distance: 0.000 m" in out


def test_plan_exhaustive_strategy(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "plan", str(scenario_dir / "n2.json"),
                           "--strategy", "exhaustive")
    assert code == 0
    assert "strategy: exhaustive" in out
    assert "release order: pA pC pB" in out
    assert "total distance: 12.000 m" in out


def test_run_n1_writes_outputs(capsys, scenario_dir, tmp_path):
    telemetry = tmp_path / "telemetry.csv"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", str(scenario_dir / "n1.json"),
                           "--telemetry", str(telemetry), "--report", str(report))
    assert code == 0
    assert "completed: yes" in out
    assert "releases: p1@A t=14.500s p2@B t=27.562s p3@C t=42.562s" in out
    assert "total distance (3D): 388.623 m" in out
    assert "total energy: 1645.735 J" in out
    assert "end position: (0.000, 0.000, 0.000)" in out
    assert f"telemetry written to {telemetry}" in out
    assert f"report written to {report}" in out
    header = telemetry.read_text().splitlines()[0]
    assert header == "t,x,y,z,payload_mass,battery_remaining,event"
    assert json.loads(report.read_text())["completed"] is True


def test_run_without_telemetry_takes_no_samples(capsys, monkeypatch, scenario_dir, tmp_path):
    steps = []

    def recording(*args, **kwargs):
        steps.append(kwargs.get("telemetry_step", 0.1))
        return simulate_mission(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_mission", recording)
    aborting = generate_scenario(12, 3, 1)  # runs dry cruising leg 1
    aborting = dataclasses.replace(
        aborting, drone=dataclasses.replace(aborting.drone, battery_capacity=900.0))
    paths = [str(scenario_dir / f"{name}.json") for name in ("n1", "n2", "demo3")]
    paths.append(scenario_file(tmp_path, aborting, "aborting.json"))
    telemetry = tmp_path / "telemetry.csv"
    for path in paths:
        runs = []
        for extra in ([], ["--telemetry", str(telemetry)]):
            report = tmp_path / f"report{len(extra)}.json"
            code, out, err = run_cli(capsys, "run", path, "--report", str(report), *extra)
            runs.append((code, out.replace(str(report), "REPORT"), err, report.read_bytes()))
        (code, out, err, report_bytes), with_telemetry = runs
        written = f"telemetry written to {telemetry}\n"
        assert with_telemetry == (code, out.replace("report written", written + "report written"),
                                  err, report_bytes)
        assert code == (1 if path.endswith("aborting.json") else 0)
    assert steps == [math.inf, 0.1] * len(paths)


def test_run_aborted_mission_exits_one(capsys, scenario_dir, tmp_path):
    scenario = parse_scenario((scenario_dir / "n1.json").read_text())
    weak = dataclasses.replace(
        scenario, drone=dataclasses.replace(scenario.drone, battery_capacity=1.0))
    path = scenario_file(tmp_path, weak)
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 1
    assert "completed: no (battery depleted on leg 1)" in out


def test_an_overflowing_move_aborts_partway_along_it(capsys, tmp_path):
    # Nodes lie about 1e307 m apart, so rate * length overflows to inf J.
    path = tmp_path / "far.json"
    assert run_cli(capsys, "gen", "--nodes", "5", "--packages", "2", "--seed", "1",
                   "--area", "1e308", "1e308", "--out", str(path))[0] == 0
    telemetry, report_path = tmp_path / "far.csv", tmp_path / "far.report.json"
    code, out, _ = run_cli(capsys, "run", str(path), "--telemetry", str(telemetry),
                           "--report", str(report_path))
    assert code == 1
    assert "completed: no (battery depleted on leg 1)" in out
    rows = [line.split(",") for line in telemetry.read_text().splitlines()[1:]]
    t = {row[6]: float(row[0]) for row in rows if row[6]}
    assert list(t) == ["TAKEOFF", "ASCEND", "CRUISE", "ABORT"]
    scenario = parse_scenario(path.read_text())
    first_hop = plan_ndf(scenario.network, scenario.source,
                         scenario.packages).legs[0].path.nodes[:2]
    length = math.dist(*((node.x, node.y) for node in map(scenario.network.node, first_hop)))
    flown = (t["ABORT"] - t["CRUISE"]) * scenario.drone.cruise_speed
    assert 9000.0 < flown < length
    report = json.loads(report_path.read_text())
    assert report["total_distance_3d"] == pytest.approx(
        t["CRUISE"] * scenario.drone.vertical_speed + flown)
    drained = float(rows[0][5]) - float(rows[-1][5])
    assert drained == scenario.drone.battery_capacity
    assert report["energy"]["total"] == pytest.approx(drained, rel=1e-12)


def test_infeasible_payload_exits_one(capsys, scenario_dir, tmp_path):
    scenario = parse_scenario((scenario_dir / "n1.json").read_text())
    heavy = dataclasses.replace(
        scenario,
        packages=tuple(dataclasses.replace(p, mass=10.0)
                       for p in scenario.packages[:2]))
    path = scenario_file(tmp_path, heavy)
    code, out, err = run_cli(capsys, "plan", path)
    assert code == 1
    assert out == ""
    assert "infeasible payload" in err
    assert "exceeds capacity" in err


def test_compare_n2(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "compare", str(scenario_dir / "n2.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ndf:")
    assert "order pA pB pC" in lines[0]
    assert "distance 14.000 m" in lines[0]
    assert "energy 84.700 J" in lines[0]
    assert "completed yes" in lines[0]
    assert lines[1].startswith("exhaustive:")
    assert "order pA pC pB" in lines[1]
    assert "distance 12.000 m" in lines[1]
    assert lines[2] == ("distance gap: 16.67% "
                        "(ndf 14.000 m vs exhaustive 12.000 m)")


def test_compare_strategies_api(scenario_dir):
    scenario = parse_scenario((scenario_dir / "n2.json").read_text())
    result = compare_strategies(scenario)
    assert result.ndf.total_distance == pytest.approx(14.0)
    assert result.optimal.total_distance == pytest.approx(12.0)
    assert result.distance_gap_percent == pytest.approx(100.0 * 2.0 / 12.0)
    assert result.ndf.completed and result.optimal.completed


def test_compare_beyond_exhaustive_cap_exits_two(capsys, tmp_path):
    crowd = EXHAUSTIVE_PACKAGE_CAP + 1
    scenario = generate_scenario(node_count=crowd + 2, package_count=crowd, seed=5)
    light = dataclasses.replace(
        scenario,
        packages=tuple(dataclasses.replace(p, mass=0.5) for p in scenario.packages))
    path = scenario_file(tmp_path, light)
    code, _, err = run_cli(capsys, "compare", path)
    assert code == 2
    assert "error:" in err


def test_gen_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out_path in (first, second):
        code, out, _ = run_cli(capsys, "gen", "--nodes", "7", "--packages", "3",
                               "--seed", "11", "--out", str(out_path))
        assert code == 0
        assert f"wrote {out_path} (7 nodes, 3 packages, seed 11)" in out
    assert first.read_bytes() == second.read_bytes()
    parse_scenario(first.read_text())


def test_gen_rejects_bad_params(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "--nodes", "1", "--packages", "0",
                           "--seed", "0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in err


def test_gen_rejects_an_infinite_area(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gen", "--nodes", "9", "--packages", "4",
                             "--seed", "77", "--area", "inf", "500",
                             "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: area")
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_an_area_too_small_for_its_nodes(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gen", "--nodes", "5", "--packages", "2",
                             "--seed", "1", "--area", "1e-3", "1e-3",
                             "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: area")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_overflowing_consumption_rate_exits_two(capsys, tmp_path, scenario_dir, command):
    doc = json.loads((scenario_dir / "n1.json").read_text())
    doc["drone"] = {"base_rate": 1e308, "payload_rate": 1e308}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    argv = [command, str(path)] + (["--report", str(report)] if command == "run" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: drone: the consumption rate")
    assert not report.exists()


def test_missing_scenario_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "plan", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_scenario_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_schema_violations_reported(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "source": "S",
        "nodes": [{"id": "S", "x": 0, "y": 0}],
        "wind": 3,
    }))
    code, _, err = run_cli(capsys, "plan", str(path))
    assert code == 2
    assert "document.wind: unknown key" in err


def test_no_arguments_exits_two(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_strategy_rejected(capsys, scenario_dir):
    code, _, _ = run_cli(capsys, "plan", str(scenario_dir / "n1.json"),
                         "--strategy", "magic")
    assert code == 2


@pytest.mark.parametrize("command", ["plan", "run"])
def test_strategy_choices_are_the_planner_table(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert f"--strategy {{{','.join(PLANNERS)}}}" in out


def test_compare_flies_the_planners_in_the_table(monkeypatch, scenario_dir):
    called = []
    for name, planner in list(PLANNERS.items()):
        def traced(*args, name=name, planner=planner, **kwargs):
            called.append(name)
            return planner(*args, **kwargs)
        monkeypatch.setitem(PLANNERS, name, traced)
    result = compare_strategies(parse_scenario((scenario_dir / "n2.json").read_text()))
    assert called == list(PLANNERS)
    assert [result.ndf.label, result.optimal.label] == list(PLANNERS)


@pytest.mark.parametrize("command", ["plan", "run", "compare"])
def test_non_utf8_scenario_file_exits_two(capsys, tmp_path, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at offset 0)\n"


@pytest.mark.parametrize("command", ["plan", "run", "compare"])
def test_deeply_nested_json_exits_two(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON: ")


# n1 with package p1 renamed; RELEASE(p1) is the only event the id reaches.
# csv.writer quoted "\r" on Python 3.13 and refused NUL on 3.10; these bytes
# are the ones it wrote on 3.11 and 3.12, and hold on every version.
N1_RELEASE_P1 = "14.500000,30.000000,40.000000,13.000000,4.000000,49480.000000,"
ODD_PACKAGE_IDS = [
    ("comma", "p,1", '"RELEASE(p,1)"\n'),
    ("quote", 'p"1', '"RELEASE(p""1)"\n'),
    ("newline", "p\n1", '"RELEASE(p\n1)"\n'),
    ("carriage-return", "p\r1", "RELEASE(p\r1)\n"),
    ("nul", "p\x001", "RELEASE(p\x001)\n"),
]


@pytest.mark.parametrize(("package_id", "field"), [case[1:] for case in ODD_PACKAGE_IDS],
                         ids=[case[0] for case in ODD_PACKAGE_IDS])
def test_odd_package_ids_write_the_same_csv_on_every_python(capsys, scenario_dir, tmp_path,
                                                             package_id, field):
    plain = tmp_path / "plain.csv"
    assert run_cli(capsys, "run", str(scenario_dir / "n1.json"), "--telemetry", str(plain))[0] == 0
    doc = json.loads((scenario_dir / "n1.json").read_text())
    doc["packages"][0]["id"] = package_id
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    telemetry = tmp_path / "odd.csv"
    code, out, err = run_cli(capsys, "run", str(path), "--telemetry", str(telemetry))
    assert (code, err) == (0, "")
    assert f"releases: {package_id}@A t=14.500s" in out
    expected = plain.read_bytes().replace(f"{N1_RELEASE_P1}RELEASE(p1)\n".encode(),
                                          f"{N1_RELEASE_P1}{field}".encode())
    assert field.encode() in expected
    assert telemetry.read_bytes() == expected


def test_output_is_reproducible(capsys, scenario_dir, tmp_path):
    outs = []
    files = []
    for attempt in ("one", "two"):
        telemetry = tmp_path / f"{attempt}.csv"
        report = tmp_path / f"{attempt}.json"
        code, out, _ = run_cli(capsys, "run", str(scenario_dir / "demo3.json"),
                               "--telemetry", str(telemetry),
                               "--report", str(report))
        assert code == 0
        outs.append(out.replace(str(telemetry), "T").replace(str(report), "R"))
        files.append((telemetry.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]
    assert files[0] == files[1]
    plans = [run_cli(capsys, "plan", str(scenario_dir / "demo3.json"))[1]
             for _ in range(2)]
    assert plans[0] == plans[1]


def test_overflowing_segment_exits_two(capsys, tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "source": "W",
        "nodes": [{"id": "W", "x": -1e308, "y": 0}, {"id": "E", "x": 1e308, "y": 0}],
        "segments": [{"a": "W", "b": "E"}],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "plan", str(path))
    assert code == 2
    assert out == ""
    assert "network:" in err


def test_integer_too_large_for_a_float_exits_two(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "source": "S",
        "nodes": [{"id": "S", "x": 10 ** 400, "y": 0}, {"id": "T", "x": 1, "y": 0}],
        "segments": [{"a": "S", "b": "T"}],
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "plan", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: nodes[0].x: must be finite\n"


def test_compare_strategies_is_library_code():
    import skyway_delivery
    from skyway_delivery import cli, simulator

    assert compare_strategies is simulator.compare_strategies
    assert skyway_delivery.compare_strategies is simulator.compare_strategies
    assert cli.CompareResult is simulator.CompareResult
    assert cli.StrategyOutcome is simulator.StrategyOutcome


def test_negative_zero_prints_as_zero(capsys, tmp_path):
    doc = {
        "source": "A",
        "nodes": [{"id": "A", "x": -0.0, "y": 0.0, "rooftop_height": -0.0},
                  {"id": "B", "x": 30.0, "y": 0.0, "rooftop_height": 5.0}],
        "segments": [{"a": "A", "b": "B"}],
        "packages": [{"id": "p", "mass": 1.0, "destination": "B"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    telemetry = tmp_path / "telemetry.csv"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", str(path),
                           "--telemetry", str(telemetry), "--report", str(report))
    assert code == 0
    assert "end position: (0.000, 0.000, 0.000)" in out
    for text in (out, telemetry.read_text(), report.read_text(),
                 serialize_scenario(parse_scenario(path.read_text()))):
        assert "-0.0" not in text
