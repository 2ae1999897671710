"""Command line front-end.

Subcommands:
  run          execute the per-patient pipeline from manifest files
  train        fit a classifier from a dataset CSV and write the model JSON
  eval         score a model against a test CSV, print the metrics table
  rules-check  parse-only validation of a rule XML file

Exit codes: 0 success / no alarm, 2 at least one ALARM fired, 1 error,
64 usage problem (bad flags, missing or unreadable inputs, a config, rules
or model file that does not parse). `run` finds every usage problem before
any patient runs. A patient that fails in `run` prints
`<id> error=<Type>: <message>` and the others still run; the exit code is
then 1.
"""

import argparse
import concurrent.futures
import datetime
import json
import os
import sys

from .classify.bayes import train_naive_bayes
from .classify.forest import train_random_forest
from .classify.metrics import evaluate_classifier
from .classify.schema import dataset_from_csv, patient_schema
from .classify.serialize import model_from_json, model_to_json
from .classify.tree import train_decision_tree
from .config import default_config, load_config
from .errors import RuleParseError, RuleSemanticError, SchemaMismatchError
from .pipeline import run_patient
from .rules import Severity, parse_rules
from .store import MeasurementStore

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALARM = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _parse_now(text):
    try:
        dt = datetime.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise UsageError("--now must be ISO8601, got %r" % text) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=datetime.timezone.utc)
    return round(dt.timestamp() * 1000)


def _require_readable(path, what):
    if not os.path.isfile(path) or not os.access(path, os.R_OK):
        raise UsageError("%s not readable: %s" % (what, path))


def _load_manifest(path):
    _require_readable(path, "manifest")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError("manifest %s is not valid JSON: %s" % (path, exc)) from None
    if not (isinstance(doc, dict) and all(doc.get(k) for k in ("patient_id", "out_dir", "rules"))):
        raise UsageError("manifest %s needs patient_id, out_dir and rules" % path)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key):
        if doc.get(key):
            doc[key] = os.path.join(base, doc[key]) if not os.path.isabs(doc[key]) else doc[key]
    for key in ("ecg", "respiration", "measurements", "config", "rules", "model",
                "out_dir", "store_dir"):
        resolve(key)
    for key in ("ecg", "respiration", "measurements", "config", "rules", "model"):
        if doc.get(key):
            _require_readable(doc[key], key)
    return doc


def _parse_file(key, path):
    if key == "config":
        return load_config(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_rules(text) if key == "rules" else model_from_json(text)


def _parse_inputs(manifests):
    """Each distinct config, rules and model file the (path, manifest)
    pairs name, parsed once before any patient runs and keyed by (manifest
    key, file path). A file that does not parse is a usage error. Patients
    share the parsed objects; run_patient only reads them."""
    parsed = {}
    for manifest, doc in manifests:
        for key in ("config", "rules", "model"):
            path = doc.get(key)
            if not path or (key, path) in parsed:
                continue
            try:
                parsed[key, path] = _parse_file(key, path)
            except (ValueError, KeyError, TypeError, RuleParseError, RuleSemanticError,
                    SchemaMismatchError) as exc:
                raise UsageError("manifest %s: %s %s does not parse: %s" % (
                    manifest, key, path, exc)) from None
    return parsed


def _run_one(doc, parsed, now_ms):
    cfg = parsed["config", doc["config"]] if doc.get("config") else default_config()
    store_dir = doc.get("store_dir") or os.path.join(doc["out_dir"], "store")
    store = MeasurementStore(store_dir)
    return run_patient(
        doc["patient_id"], store, cfg, parsed["rules", doc["rules"]], now_ms,
        ecg_csv=doc.get("ecg"), ecg_rate_hz=float(doc.get("ecg_rate_hz", 250.0)),
        resp_csv=doc.get("respiration"), resp_rate_hz=float(doc.get("resp_rate_hz", 25.0)),
        measurements_csv=doc.get("measurements"), model=parsed.get(("model", doc.get("model"))),
        out_dir=doc["out_dir"])


def _run_isolated(doc, parsed, now_ms):
    """The patient's result, or the exception that stopped it."""
    try:
        return _run_one(doc, parsed, now_ms)
    except Exception as exc:
        return exc


def cmd_run(args):
    now_ms = _parse_now(args.now) if args.now else round(
        datetime.datetime.now(tz=datetime.timezone.utc).timestamp() * 1000)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1, got %d" % args.jobs)
    manifests = [_load_manifest(p) for p in args.manifest]
    ids = [m["patient_id"] for m in manifests]
    if len(set(ids)) != len(ids):
        raise UsageError("duplicate patient_id across manifests")
    parsed = _parse_inputs(zip(args.manifest, manifests))
    if args.jobs > 1 and len(manifests) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(lambda d: _run_isolated(d, parsed, now_ms), manifests))
    else:
        results = [_run_isolated(d, parsed, now_ms) for d in manifests]
    any_alarm = any_error = False
    for pid, res in sorted(zip(ids, results), key=lambda pr: pr[0]):
        if isinstance(res, Exception):
            any_error = True
            print("%s error=%s: %s" % (pid, type(res).__name__, res))
            continue
        alarm = any(a.severity is Severity.ALARM for a in res.alerts)
        any_alarm = any_alarm or alarm
        print("%s alerts=%d alarm=%s decision=%s%s" % (
            pid, len(res.alerts), "yes" if alarm else "no",
            res.decision.value,
            " flagged-qrs-disagreement" if res.qrs_flagged else ""))
    if any_error:
        return EXIT_ERROR
    return EXIT_ALARM if any_alarm else EXIT_OK


def _tree_summary(root):
    if root["kind"] == "leaf":
        return 1, 1
    children = (root["children"] if isinstance(root["children"], list)
                else list(root["children"].values()))
    stats = [_tree_summary(c) for c in children]
    return 1 + max(d for d, _ in stats), 1 + sum(n for _, n in stats)


def cmd_train(args):
    _require_readable(args.dataset, "dataset")
    with open(args.dataset, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = dataset_from_csv(text, patient_schema())
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if len(data) == 0:
        raise UsageError("dataset has no rows")
    if args.algorithm == "tree":
        model = train_decision_tree(data, max_depth=args.max_depth, min_leaf=args.min_leaf)
        depth, nodes = _tree_summary(model.root)
        print("trained decision tree: depth=%d nodes=%d rows=%d" % (depth, nodes, len(data)))
    elif args.algorithm == "forest":
        model = train_random_forest(
            data, n_trees=args.n_trees, attrs_per_split=args.attrs_per_split,
            seed=args.seed, bootstrap=not args.no_bootstrap,
            max_depth=args.max_depth, min_leaf=args.min_leaf)
        print("trained random forest: trees=%d attrs_per_split=%d seed=%d rows=%d" % (
            args.n_trees, args.attrs_per_split, args.seed, len(data)))
    else:
        model = train_naive_bayes(data)
        priors = " ".join("%s=%.4f" % (lab.name, p)
                          for lab, p in sorted(model.priors.items(), key=lambda kv: kv[0].ordinal))
        print("trained naive bayes: rows=%d priors: %s" % (len(data), priors))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
    print("model written to %s" % args.out)
    return EXIT_OK


def cmd_eval(args):
    _require_readable(args.model, "model")
    _require_readable(args.testset, "testset")
    with open(args.model, "r", encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    with open(args.testset, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = dataset_from_csv(text, patient_schema())
    if len(data) == 0:
        raise UsageError("test set has no rows")
    metrics = evaluate_classifier(model, data)
    rae = ("%.4f" % metrics["rae_pct"]) if metrics["rae_pct"] == metrics["rae_pct"] else "n/a"
    print("%-22s %10s" % ("Metric", "Value"))
    print("%-22s %10.4f" % ("MAE", metrics["mae"]))
    print("%-22s %10.4f" % ("RMSE", metrics["rmse"]))
    print("%-22s %10s" % ("RAE (%)", rae))
    print("%-22s %10d" % ("Correctly classified", metrics["correct_count"]))
    print("%-22s %10d" % ("Instances", metrics["instance_count"]))
    return EXIT_OK


def cmd_rules_check(args):
    _require_readable(args.rules, "rules")
    with open(args.rules, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        ruleset = parse_rules(text)
    except (RuleParseError, RuleSemanticError) as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    print("ok: %d rules, schema %s" % (len(ruleset), ruleset.schema))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="edgevitals",
                     description="Edge pipeline for chronic-disease monitoring")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the per-patient pipeline")
    p_run.add_argument("manifest", nargs="+", help="patient manifest JSON file(s)")
    p_run.add_argument("--now", help="pin the clock (ISO8601, UTC assumed)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel patients")

    p_train = sub.add_parser("train", help="train a classifier")
    p_train.add_argument("dataset", help="training CSV (41 attributes + class)")
    p_train.add_argument("--algorithm", choices=("tree", "forest", "bayes"),
                         required=True)
    p_train.add_argument("--out", required=True, help="output model JSON path")
    p_train.add_argument("--max-depth", type=int, default=None)
    p_train.add_argument("--min-leaf", type=int, default=1)
    p_train.add_argument("--n-trees", type=int, default=25)
    p_train.add_argument("--attrs-per-split", type=int, default=7)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--no-bootstrap", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate a model on a test CSV")
    p_eval.add_argument("model")
    p_eval.add_argument("testset")

    p_check = sub.add_parser("rules-check", help="validate a rule XML file")
    p_check.add_argument("rules")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "train": cmd_train,
        "eval": cmd_eval,
        "rules-check": cmd_rules_check,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pipeline/domain failures are exit 1
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
