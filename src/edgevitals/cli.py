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
then 1. `run --jobs N` forks min(N, patients) workers, and worker k runs
every Nth manifest from the k-th; a worker that dies fails only its own
patients, each with `<id> error=ChildProcessError: ...`, and the shares of
workers that could not be forked run in the `run` process itself.
"""

import argparse
import datetime
import json
import os
import pickle
import signal
import sys

from .classify.bayes import train_naive_bayes
from .classify.forest import train_random_forest
from .classify.metrics import evaluate_classifier
from .classify.schema import dataset_from_csv, patient_schema
from .classify.serialize import model_from_json, model_to_json
from .classify.tree import train_decision_tree
from .config import default_config, load_config
from .errors import RuleParseError, RuleSemanticError, SchemaMismatchError
from .messaging import Urgency
from .pipeline import run_patient
from .rules import parse_rules
from .store import _PATIENT_RE, MeasurementStore, write_atomic

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


# the keys a manifest may hold; the file keys name inputs run reads
_FILE_KEYS = ("ecg", "respiration", "measurements", "config", "rules", "model")
_STRING_KEYS = ("patient_id",) + _FILE_KEYS + ("out_dir", "store_dir")
_MANIFEST_KEYS = frozenset(_STRING_KEYS + ("ecg_rate_hz", "resp_rate_hz"))


def _load_manifest(path):
    _require_readable(path, "manifest")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise UsageError("manifest %s is not UTF-8: %s" % (path, exc)) from None
        except json.JSONDecodeError as exc:
            raise UsageError("manifest %s is not valid JSON: %s" % (path, exc)) from None
    if not (isinstance(doc, dict) and all(doc.get(k) for k in ("patient_id", "out_dir", "rules"))):
        raise UsageError("manifest %s needs patient_id, out_dir and rules" % path)
    unknown = sorted(set(doc) - _MANIFEST_KEYS)
    if unknown:
        raise UsageError("manifest %s: unknown key %s" % (path, ", ".join(map(repr, unknown))))
    for key in _STRING_KEYS:
        if doc.get(key) is not None and not isinstance(doc[key], str):
            raise UsageError("manifest %s: %s must be a string" % (path, key))
    if not _PATIENT_RE.fullmatch(doc["patient_id"]):
        raise UsageError("manifest %s: patient_id %r may hold only ASCII letters, digits, "
                         "'_' and '-'" % (path, doc["patient_id"]))
    base = os.path.dirname(os.path.abspath(path))
    # every path key is set from here on: a path, or None when absent or empty
    for key in _FILE_KEYS + ("out_dir", "store_dir"):
        doc[key] = os.path.join(base, doc[key]) if doc.get(key) else None
    for key in _FILE_KEYS:
        if doc[key]:
            _require_readable(doc[key], key)
    for key, default in (("ecg_rate_hz", 250.0), ("resp_rate_hz", 25.0)):
        rate = doc.get(key, default)
        # isinstance counts a bool as an int; NaN fails both comparisons
        if (isinstance(rate, bool) or not isinstance(rate, (int, float))
                or not 0 < rate <= sys.float_info.max):
            raise UsageError("manifest %s: %s must be a finite number above 0, got %s"
                             % (path, key, json.dumps(rate)))
        doc[key] = float(rate)
    return doc


def _parse_file(key, path):
    if path is None:  # a manifest that names no config or model
        return default_config() if key == "config" else None
    if key == "config":
        return load_config(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if key == "rules":
        return parse_rules(text)
    model, schema = model_from_json(text), patient_schema()
    if model.schema != schema:
        # run_patient builds its feature vectors on the patient schema
        raise SchemaMismatchError("the model's %d-attribute schema is not the %d-attribute "
                                  "patient schema" % (len(model.schema), len(schema)))
    return model


def _parse_inputs(pairs):
    """Replaces the config, rules and model path of each (path, manifest)
    pair's manifest with the parsed object, before any patient runs: the
    default config when the manifest names none, and None when it names
    no model. Each distinct file is parsed once, and patients share the
    parsed objects; run_patient only reads them. A file that does not parse
    is a usage error, and so are a model trained on another attribute
    schema and a high-pass cutoff at or above the Nyquist frequency of an
    ECG that a linear baseline removal would filter."""
    parsed = {}
    for manifest, doc in pairs:
        config_path = doc["config"]
        for key in ("config", "rules", "model"):
            path = doc[key]
            if (key, path) not in parsed:
                try:
                    parsed[key, path] = _parse_file(key, path)
                except (ValueError, KeyError, TypeError, RuleParseError, RuleSemanticError,
                        SchemaMismatchError) as exc:
                    raise UsageError("manifest %s: %s %s does not parse: %s" % (
                        manifest, key, path, exc)) from None
            doc[key] = parsed[key, path]
        pre, nyquist = doc["config"]["preprocess"], doc["ecg_rate_hz"] / 2
        if doc["ecg"] and pre["baseline_method"] == "linear" and not (
                pre["highpass_cutoff_hz"] < nyquist):
            raise UsageError(
                "manifest %s: highpass_cutoff_hz %r in config %s must lie below %r Hz, "
                "the Nyquist frequency of ecg_rate_hz %r" % (
                    manifest, pre["highpass_cutoff_hz"], config_path or "<default>",
                    nyquist, doc["ecg_rate_hz"]))


def _summarise(docs, now_ms):
    """Runs each manifest's patient and returns its (alarm, error, summary
    line): all the parent needs, so a worker sends back no PipelineResult."""
    summaries = []
    for doc in docs:
        pid = doc["patient_id"]
        try:
            store = MeasurementStore(doc["store_dir"] or os.path.join(doc["out_dir"], "store"))
            res = run_patient(
                pid, store, doc["config"], doc["rules"], now_ms, doc["out_dir"],
                ecg_csv=doc["ecg"], ecg_rate_hz=doc["ecg_rate_hz"], resp_csv=doc["respiration"],
                resp_rate_hz=doc["resp_rate_hz"], measurements_csv=doc["measurements"],
                model=doc["model"])
        except Exception as exc:
            summaries.append((False, True, "%s error=%s: %s" % (pid, type(exc).__name__, exc)))
            continue
        # decide_transmission sends at once exactly when an ALARM fired
        alarm = res.decision is Urgency.IMMEDIATE
        decision = res.decision.value if res.decision else "HOLD"
        summaries.append((alarm, False, "%s alerts=%d alarm=%s decision=%s%s" % (
            pid, len(res.alerts), "yes" if alarm else "no", decision,
            " flagged-qrs-disagreement" if res.report.get("qrs_flagged") else "")))
    return summaries


def _summarise_forked(docs, now_ms, jobs):
    """Each manifest's summary, from `jobs` forked workers: worker k runs
    the share docs[k::jobs] and pickles its summaries into a pipe once, at
    the end. Workers inherit the manifests with their parsed inputs, so
    nothing else is pickled. A worker that dies, or raises, fails only its
    own share. When a pipe or fork fails, no further worker is forked and
    the parent runs the shares left over itself. Workers leave with
    os._exit, so no atexit handler or stdio buffer of the parent runs twice,
    and each is reaped, killed first if the parent leaves early. Under
    `edgevitals run` nothing has imported numpy, whose BLAS starts threads,
    before the first fork, so the parent forks with one thread."""
    summaries = [None] * len(docs)
    workers = []  # (share index, pid, read end of its pipe), in share order
    try:
        for k in range(jobs):
            try:
                fd_in, fd_out = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_in)
                os.close(fd_out)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(fd_in)
                    with os.fdopen(fd_out, "wb") as fh:
                        pickle.dump(_summarise(docs[k::jobs], now_ms), fh, protocol=5)
                    status = 0
                finally:
                    os._exit(status)
            os.close(fd_out)
            workers.append((k, pid, os.fdopen(fd_in, "rb")))
        for k in range(len(workers), jobs):
            summaries[k::jobs] = _summarise(docs[k::jobs], now_ms)
        while workers:
            k, pid, pipe = workers[0]
            with pipe:
                try:
                    share = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    share = None
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            summaries[k::jobs] = share or [
                (False, True, "%s error=ChildProcessError: worker exited with status %d before "
                 "reporting, so its run may have finished"
                 % (doc["patient_id"], os.waitstatus_to_exitcode(status)))
                for doc in docs[k::jobs]]
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return summaries


def cmd_run(args):
    now_ms = _parse_now(args.now) if args.now else round(
        datetime.datetime.now(tz=datetime.timezone.utc).timestamp() * 1000)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1, got %d" % args.jobs)
    manifests = [_load_manifest(p) for p in args.manifest]
    ids = [m["patient_id"] for m in manifests]
    if len(set(ids)) != len(ids):
        raise UsageError("duplicate patient_id across manifests")
    _parse_inputs(zip(args.manifest, manifests))
    if args.jobs > 1 and len(manifests) > 1:
        summaries = _summarise_forked(manifests, now_ms, min(args.jobs, len(manifests)))
    else:
        summaries = _summarise(manifests, now_ms)
    for _, (_, _, line) in sorted(zip(ids, summaries), key=lambda ps: ps[0]):
        print(line)
    if any(error for _, error, _ in summaries):
        return EXIT_ERROR
    return EXIT_ALARM if any(alarm for alarm, _, _ in summaries) else EXIT_OK


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
    try:
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
            priors = " ".join("%s=%.4f" % (lab.name, p) for lab, p in
                              sorted(model.priors.items(), key=lambda kv: kv[0].ordinal))
            print("trained naive bayes: rows=%d priors: %s" % (len(data), priors))
    except ValueError as exc:  # the dataset has rows, so a numeric flag is at fault
        raise UsageError(str(exc)) from None
    write_atomic(args.out, model_to_json(model))  # a model it refuses leaves no file
    print("model written to %s" % args.out)
    return EXIT_OK


def cmd_eval(args):
    _require_readable(args.model, "model")
    _require_readable(args.testset, "testset")
    model = _parse_file("model", args.model)
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
    try:
        rules = _parse_file("rules", args.rules)
    except (RuleParseError, RuleSemanticError) as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    print("ok: %d rules, schema 1" % len(rules))
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
