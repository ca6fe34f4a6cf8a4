"""Self-tests of the benchmark wrapper and catalogue.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def rust_catalogue(const):
    """`[(name, unit)]` of one metric list in report.rs."""
    with open(os.path.join(run.HERE, "src", "report.rs")) as f:
        src = f.read()
    block = src[src.index(f"pub const {const}"):]
    block = block[: block.index("];")]
    return re.findall(r'\("([^"]+)", "([^"]+)"\)', block)


def rust_workloads():
    with open(os.path.join(run.HERE, "src", "report.rs")) as f:
        src = f.read()
    line = next(l for l in src.splitlines() if l.startswith("pub const WORKLOADS"))
    return re.findall(r'"([^"]+)"', line)


def result_line(spec, trace, **overrides):
    metrics = {name: {"value": 1.5, "unit": unit} for name, unit in run.expected_metrics(spec, trace).items()}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    result.update(overrides)
    return json.dumps(result)


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[group]]
            for m in self.spec[group]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_harness_reports_exactly_the_declared_metrics(self):
        for group, const in (("end_to_end", "END_TO_END"), ("per_layer", "PER_LAYER")):
            declared = [(m["name"], m["unit"]) for m in self.spec[group]]
            self.assertEqual(declared, rust_catalogue(const))
        self.assertEqual([w["name"] for w in self.spec["workloads"]], rust_workloads())

    def test_bounds(self):
        for m in self.spec["end_to_end"]:
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


class ResultLineTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_well_formed_lines_parse(self):
        for trace in (False, True):
            parsed = run.check_result(result_line(self.spec, trace), self.spec, trace)
            self.assertTrue(parsed["correct"])

    def test_harness_golden_line_parses(self):
        # The exact line report.rs's own test renders.
        line = (
            '{"correct": true, "attempted": 12, "failed": 0, "metrics": {'
            '"setup_s": {"value": 7.25, "unit": "s"}, '
            '"query_p50_ms": {"value": 150.0, "unit": "ms"}, '
            '"ops_per_s": {"value": 0.0000001, "unit": "1/s"}}}'
        )
        metrics = json.loads(line)["metrics"]
        self.assertEqual(metrics["ops_per_s"]["value"], 1e-7)

    def test_malformed_lines_are_refused(self):
        spec = self.spec
        good = json.loads(result_line(spec, False))
        name = spec["end_to_end"][0]["name"]
        missing = dict(good, metrics={k: v for k, v in good["metrics"].items() if k != name})
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"][name]["unit"] = "parsec"
        string_value = json.loads(json.dumps(good))
        string_value["metrics"][name]["value"] = "1.0"
        bad = [
            "not json",
            "[1, 2]",
            json.dumps(missing),
            json.dumps(wrong_unit),
            json.dumps(string_value),
            json.dumps(dict(good, seed=1)),
            json.dumps(dict(good, attempted=0)),
            json.dumps(dict(good, failed=11)),
            json.dumps(dict(good, correct="yes")),
            result_line(spec, True),  # per-layer metrics on an untraced run
        ]
        for line in bad:
            with self.assertRaises(ValueError, msg=line[:80]):
                run.check_result(line, spec, False)

    def test_argument_parsing(self):
        flags = run.parse_args(["--workload", "inv-mixed", "--seed", "1", "--seconds", "10", "--trace", "0"])
        self.assertEqual(flags["--workload"], "inv-mixed")
        for argv in (["--seed"], ["--bogus", "1"], ["--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2"]):
            with self.assertRaises(ValueError):
                run.parse_args(argv)


if __name__ == "__main__":
    unittest.main()
