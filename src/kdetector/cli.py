"""Command-line entry point for the crash-deduplication toolkit.

Subcommands cover the whole workflow: ``synth`` fabricates a seeded
corpus, ``mine`` builds the component map from a source tree,
``stopwords`` derives the stop-word list from a dump corpus, ``train``
grid-tunes the model coefficients on a labeled pairs file, ``evaluate``
prints an AUC table against the two baseline comparators, and ``ingest``
/ ``detect`` drive the triage store. ``ingest`` and ``detect --bind`` hold
the store's writer lock from before it opens until after the append, so
concurrent per-crash processes never mint the same bug id, and under it
they refresh the store's record checkpoint once enough records have been
appended since the last one. They read the map and the stop list, and read
and sequence the dump, before they take the lock, so an input that is
missing or bad leaves no store behind.
A read-only ``detect`` takes no lock and writes nothing; a store that does
not exist is a data error for it. A dump that is not UTF-8 text or not a
usable dump is a data error naming the file, except to ``stopwords``,
which skips it with a warning. Exit codes: 0 success, 1 usage error, 2
data error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .detector import (
    Detector,
    FailureStore,
    RecencyWindow,
    dump_time,
    render_report,
    sequence_dump,
    writer_lock,
)
from .dump_parser import parse_dump
from .errors import (
    EmptyCorpus,
    EmptyStack,
    KDetectorError,
    MalformedDump,
    MalformedHeader,
    MissingSection,
    StoreWriteError,
)
from .knowledge_miner import (
    ComponentMap,
    dump_component_map,
    load_component_map,
    mine_tree,
    snapshot_stamp,
)
# to_component_sequence and filter_stop_words are not called here; the
# benchmark's spans.TARGETS looks both up in this module
from .sequencer import to_component_sequence
from .similarity import (
    ModelParams,
    baseline_edit_distance,
    baseline_prefix_match,
)
from .stopwords import (
    StopWordList,
    derive_stop_words,
    filter_stop_words,
    format_stop_words,
    parse_stop_words,
)
from .synth import CorpusSpec, generate_corpus, write_corpus
from .trainer import (
    compute_auc,
    format_grid_report,
    format_params,
    parse_pairs,
    parse_params,
    score_pairs,
    tune_parameters,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def build_parser(config: dict | None = None) -> _Parser:
    config = config or {}

    def dflt(key: str, fallback, nullable: bool = False):
        # as text, so the option's own type checks a config value too; null
        # only unsets a window bound
        if key not in config:
            return fallback
        if config[key] is None and not nullable:
            raise UsageError(f"argument --config: {key} cannot be null")
        return None if config[key] is None else str(config[key])

    parser = _Parser(prog="kdetector", description=__doc__)
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine a source tree into a component map")
    p.add_argument("src_root")
    p.add_argument("--out", default=dflt("map", "componentmap.tsv"))
    p.add_argument("--function-index", help="precomputed file<TAB>function records")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("stopwords", help="derive stop words from a dump corpus")
    p.add_argument("corpus_dir")
    p.add_argument("--out", default=dflt("stoplist", "stopwords.tsv"))
    p.add_argument("--cutoff", type=int, default=dflt("cutoff", 0))
    p.set_defaults(func=_cmd_stopwords)

    p = sub.add_parser("train", help="grid-tune coefficients on labeled pairs")
    p.add_argument("pairs_file")
    _pipeline_options(p, dflt)
    p.add_argument("--params-out", default=dflt("params", "params.txt"))
    p.add_argument("--grid-out", default=dflt("grid", "tuning_report.tsv"))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="AUC table: model vs baselines")
    p.add_argument("pairs_file")
    _pipeline_options(p, dflt)
    p.add_argument("--params", default=dflt("params", "params.txt"))
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ingest", help="add a dump to the failure store")
    p.add_argument("dump")
    _pipeline_options(p, dflt)
    p.add_argument("--store", default=dflt("store", "store"))
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("detect", help="triage a dump against the store")
    p.add_argument("dump")
    _pipeline_options(p, dflt)
    p.add_argument("--store", default=dflt("store", "store"))
    p.add_argument("--params", default=dflt("params", "params.txt"))
    p.add_argument("--window-days", type=float, default=dflt("window_days", 30.0, nullable=True))
    p.add_argument("--last-k", type=int, default=dflt("last_k", None, nullable=True))
    p.add_argument(
        "--bind",
        action="store_true",
        help="persist the verdict (bind the duplicate or file a new bug)",
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--groups", type=int, default=dflt("groups", 10))
    p.add_argument("--per-group", type=int, default=dflt("per_group", 4))
    p.add_argument("--noise", type=float, default=dflt("noise", 0.1))
    p.add_argument("--seed", type=int, default=dflt("seed", 0))
    p.add_argument("--scaffold", type=int, default=dflt("scaffold", 2))
    p.add_argument("--scaffold-tail", type=int, default=dflt("scaffold_tail", 3))
    p.add_argument("--components", type=int, default=dflt("components", 12))
    p.add_argument("--top-pool", type=int, default=dflt("top_pool", 4))
    p.add_argument(
        "--functions-per-component",
        type=int,
        default=dflt("functions_per_component", 8),
    )
    p.set_defaults(func=_cmd_synth)
    return parser


def _pipeline_options(p: argparse.ArgumentParser, dflt) -> None:
    p.add_argument("--dumps", default=dflt("dumps", "dumps"))
    p.add_argument("--map", dest="map_file", default=dflt("map", "componentmap.tsv"))
    p.add_argument("--stoplist", default=dflt("stoplist", "stopwords.tsv"))


def _load_map(args) -> ComponentMap:
    return load_component_map(Path(args.map_file).read_text(), args.map_file)


def _at_least(option: str, value, floor: int) -> None:
    """Usage error unless the option's value is unset or at least floor (NaN is not)."""
    if value is not None and not value >= floor:
        raise UsageError(f"argument {option}: must be at least {floor}, got {value}")


def _load_stoplist(args) -> StopWordList:
    return parse_stop_words(Path(args.stoplist).read_text(), args.stoplist)


def _load_params(args) -> ModelParams:
    return parse_params(Path(args.params).read_text(), args.params)


# what a dump that is not UTF-8 text or not a usable dump raises; ValueError
# covers UnicodeDecodeError and int()'s digit limit on a frame index
_DUMP_ERRORS = (ValueError, MalformedHeader, MissingSection, EmptyStack)


@contextlib.contextmanager
def _naming(dump_path):
    """Raise a dump's decode or parse error as a MalformedDump naming the file."""
    try:
        yield
    except _DUMP_ERRORS as exc:
        raise MalformedDump(f"{dump_path}: {exc}") from None


def _sequence_file(dump_path, cmap, stop_list):
    """The dump's component sequence and crash time, read before any store
    is touched, so a bad dump leaves no store behind."""
    with _naming(dump_path):
        dump, sequence = sequence_dump(Path(dump_path).read_text(), cmap, stop_list)
        return sequence, dump_time(dump)


def _load_dumps(dump_ids, dumps_dir, cmap, stop_list):
    """Parse each dump once; returns the component sequences and, for the
    baselines, the cleaned backtrace names without stop-word filtering."""
    sequences, names = {}, {}
    for dump_id in sorted(dump_ids):
        path = Path(dumps_dir) / f"{dump_id}.dump"
        with _naming(path):
            dump, sequences[dump_id] = sequence_dump(path.read_text(), cmap, stop_list, dump_id)
        names[dump_id] = [f.function_name for f in dump.backtrace_frames]
    return sequences, names


def _cmd_mine(args) -> int:
    index_text = None
    if args.function_index:
        index_text = Path(args.function_index).read_text()
    cmap, report = mine_tree(args.src_root, index_text)
    Path(args.out).write_text(
        dump_component_map(cmap, snapshot_stamp(args.src_root))
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"functions={cmap.stats.functions} components={cmap.stats.components} "
        f"unmapped_files={len(report.unmapped_files)} "
        f"skipped_lines={report.skipped_lines}"
    )
    return 0


def _cmd_stopwords(args) -> int:
    corpus = []
    for path in sorted(Path(args.corpus_dir).glob("*.dump")):
        try:
            corpus.append(parse_dump(path.read_text()))
        except (KDetectorError, ValueError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
    if not corpus:
        raise EmptyCorpus(f"no parseable dumps under {args.corpus_dir}")
    stop_list = derive_stop_words(corpus, cutoff=args.cutoff)
    Path(args.out).write_text(format_stop_words(stop_list))
    print(f"entries={len(stop_list.entries)} cutoff={stop_list.cutoff_length}")
    return 0


def _cmd_train(args) -> int:
    pairs = parse_pairs(Path(args.pairs_file).read_text(), args.pairs_file)
    cmap = _load_map(args)
    stop_list = _load_stoplist(args)
    ids = {p.dump_id_a for p in pairs} | {p.dump_id_b for p in pairs}
    sequences, _ = _load_dumps(ids, args.dumps, cmap, stop_list)
    result = tune_parameters(pairs, sequences)
    Path(args.params_out).write_text(format_params(result.params))
    Path(args.grid_out).write_text(format_grid_report(result))
    print(
        f"m={result.params.m:.1f} n={result.params.n:.1f} "
        f"auc={result.best_auc:.6f} threshold={result.params.threshold:.6f}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    pairs = parse_pairs(Path(args.pairs_file).read_text(), args.pairs_file)
    cmap = _load_map(args)
    stop_list = _load_stoplist(args)
    params = _load_params(args)
    ids = {p.dump_id_a for p in pairs} | {p.dump_id_b for p in pairs}
    sequences, names = _load_dumps(ids, args.dumps, cmap, stop_list)
    model_auc = compute_auc(score_pairs(pairs, sequences, params))
    # baselines see the cleaned stacks without stop-word or component help
    edit_auc = compute_auc(
        (
            baseline_edit_distance(
                "\n".join(names[p.dump_id_a]), "\n".join(names[p.dump_id_b])
            ),
            p.label,
        )
        for p in pairs
    )
    prefix_auc = compute_auc(
        (baseline_prefix_match(names[p.dump_id_a], names[p.dump_id_b]), p.label)
        for p in pairs
    )
    print(f"kdetector\t{model_auc:.6f}")
    print(f"edit-distance\t{edit_auc:.6f}")
    print(f"prefix-match\t{prefix_auc:.6f}")
    return 0


def _write_checkpoint(store: FailureStore) -> None:
    """The record is stored already, so a checkpoint that cannot be
    written is only a warning; the next writer tries again."""
    try:
        store.write_checkpoint()
    except (OSError, StoreWriteError) as exc:
        print(f"warning: no checkpoint written: {exc}", file=sys.stderr)


def _cmd_ingest(args) -> int:
    cmap, stop_list = _load_map(args), _load_stoplist(args)
    sequence, crash_time = _sequence_file(args.dump, cmap, stop_list)
    with writer_lock(args.store):
        detector = Detector(FailureStore(args.store), cmap, stop_list, ModelParams(1.0, 1.0))
        record = detector.file_bug(sequence, crash_time, dump_path=str(args.dump))
        _write_checkpoint(detector.store)
    print(json.dumps({"ingested": record.dump_id, "bug_id": record.bug_id}))
    return 0


def _cmd_detect(args) -> int:
    _at_least("--window-days", args.window_days, 0)
    _at_least("--last-k", args.last_k, 0)
    params = _load_params(args)
    cmap, stop_list = _load_map(args), _load_stoplist(args)
    sequence, crash_time = _sequence_file(args.dump, cmap, stop_list)
    window = RecencyWindow(days=args.window_days, last_k=args.last_k)
    with writer_lock(args.store) if args.bind else contextlib.nullcontext():
        store = FailureStore(args.store, read_only=not args.bind)
        detector = Detector(store, cmap, stop_list, params)
        result = detector.triage_sequence(
            sequence, crash_time, dump_path=str(args.dump), window=window, bind=args.bind
        )
        if args.bind:
            _write_checkpoint(detector.store)
    print(render_report(result))
    return 0


def _cmd_synth(args) -> int:
    _at_least("--groups", args.groups, 1)
    _at_least("--per-group", args.per_group, 1)
    _at_least("--components", args.components, 1)
    _at_least("--top-pool", args.top_pool, 1)
    _at_least("--functions-per-component", args.functions_per_component, 1)
    spec = CorpusSpec(
        groups=args.groups,
        per_group=args.per_group,
        noise=args.noise,
        seed=args.seed,
        components=args.components,
        functions_per_component=args.functions_per_component,
        scaffold_functions=args.scaffold,
        scaffold_tail=args.scaffold_tail,
        top_pool=args.top_pool,
    )
    corpus = generate_corpus(spec)
    write_corpus(corpus, args.out)
    print(
        f"dumps={len(corpus.dump_texts)} records={len(corpus.records)} "
        f"pairs={len(corpus.pairs)} train={len(corpus.pairs_train)} "
        f"test={len(corpus.pairs_test)}"
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = {}
        if "--config" in argv:
            at = argv.index("--config") + 1
            if at == len(argv):
                raise UsageError("argument --config: expected one argument")
            try:
                config = json.loads(Path(argv[at]).read_text())
            except json.JSONDecodeError as exc:
                raise UsageError(f"argument --config: {argv[at]} is not valid JSON: {exc}") from None
            if not isinstance(config, dict):
                raise UsageError(f"argument --config: {argv[at]} is not a JSON object")
        parser = build_parser(config)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KDetectorError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
