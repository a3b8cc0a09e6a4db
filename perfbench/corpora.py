"""Seeded benchmark inputs, generated by ``kdetector.synth`` and cached.

Two corpora feed every run:

* the *stream* corpus: crash dumps in record (time) order, split into a
  history that is ingested into the failure store and the incoming dumps
  that are triaged against it;
* the *hard* tuning corpus: a non-saturating ``CorpusSpec`` with labeled
  train and test pairs for ``kdetector train`` and ``kdetector evaluate``.

Each corpus is written once per spec with ``write_corpus`` into
``perfbench/.cache/corpora/<key>/`` together with the sha256 of its files,
so runs with the same seed reuse the same bytes and the recorded digest
shows that two commits measured the same inputs.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import math
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import kdetector.synth as synth

# Noise for the stream corpus. At 0.2 (the README's walkthrough) nearly
# every incoming dump is triaged right; at 0.4 with TRIAGE_PARAMS about 96%
# are, so a scoring or detection change that loses verdicts shows.
STREAM_NOISE = 0.4

# The tuning corpus. The default spec saturates: held-out AUC is 0.99997 on
# 2,000 dumps at noise 0.2, so a quality regression would not show. Heavy
# noise over few components, with two top components shared by every group,
# gives a held-out AUC near 0.96 and an F1 near 0.93. On this corpus the
# tuned n usually sits at or near the grid edge (2.0).
HARD_SPEC = dict(noise=0.8, components=4, functions_per_component=6, top_pool=2)

PER_GROUP = 4
# Stop words are derived from at most this many of the oldest history dumps.
STOPWORD_SAMPLE = 1000
# The detector's default recency window; triage_accuracy judges NEW
# verdicts against it.
WINDOW = datetime.timedelta(days=30)
# Corpus directories kept in the cache; the least recently used go first.
CACHE_KEEP = 12

_TIME_RE = re.compile(r"^time:\s*(\S+)\s*$", re.M)
_DIGEST_FILE = "sha256"


@dataclass
class StreamInputs:
    root: Path
    history: list[str]  # dump ids, oldest first
    incoming: list[str]  # dump ids that follow the history, oldest first
    texts: dict[str, str]
    group: dict[str, int]  # dump id -> true crash group
    recent_kin: dict[str, bool]  # incoming id -> an earlier same-group dump is in the window
    sha256: str

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def stopword_dumps(self) -> Path:
        return self.root / "stopword_sample"

    def dump_path(self, dump_id: str) -> Path:
        return self.root / "dumps" / f"{dump_id}.dump"


@dataclass
class TuneInputs:
    root: Path
    sha256: str

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def dumps(self) -> Path:
        return self.root / "dumps"

    @property
    def pairs_train(self) -> Path:
        return self.root / "pairs_train.tsv"

    @property
    def pairs_test(self) -> Path:
        return self.root / "pairs_test.tsv"


def stream_inputs(cache: Path, seed: int, history: int, incoming: int) -> StreamInputs:
    groups = math.ceil((history + incoming) / PER_GROUP)
    spec = synth.CorpusSpec(groups=groups, per_group=PER_GROUP, noise=STREAM_NOISE, seed=seed)
    root, digest = _cached(cache, spec, pairs=False, stopword_sample=min(history, STOPWORD_SAMPLE))
    order, group = _read_truth(root / "truth.tsv")
    ids = order[: history + incoming]
    texts = {dump_id: (root / "dumps" / f"{dump_id}.dump").read_text() for dump_id in ids}
    last_seen: dict[int, datetime.datetime] = {}
    recent_kin: dict[str, bool] = {}
    for k, dump_id in enumerate(ids):
        when = _crash_time(texts[dump_id])
        previous = last_seen.get(group[dump_id])
        if k >= history:
            recent_kin[dump_id] = previous is not None and previous >= when - WINDOW
        last_seen[group[dump_id]] = when
    return StreamInputs(root, ids[:history], ids[history:], texts, group, recent_kin, digest)


def tune_inputs(cache: Path, seed: int, groups: int) -> TuneInputs:
    spec = synth.CorpusSpec(groups=groups, per_group=PER_GROUP, seed=seed, **HARD_SPEC)
    root, digest = _cached(cache, spec, pairs=True)
    return TuneInputs(root, digest)


def tree_sha256(root: Path) -> str:
    """Digest over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != _DIGEST_FILE):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _cached(cache: Path, spec, pairs: bool, stopword_sample: int = 0) -> tuple[Path, str]:
    key = hashlib.sha256(
        repr((spec, pairs, stopword_sample, _generator_digest())).encode()
    ).hexdigest()[:20]
    root = cache / key
    digest_file = root / _DIGEST_FILE
    if digest_file.is_file():
        digest = digest_file.read_text().strip()
        if tree_sha256(root) == digest:
            os.utime(root)
            return root, digest
        shutil.rmtree(root)
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".tmp-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    with _pairs_disabled(not pairs):
        corpus = synth.generate_corpus(spec)
    synth.write_corpus(corpus, tmp)
    if stopword_sample:
        sample = tmp / "stopword_sample"
        sample.mkdir()
        for record in corpus.records[:stopword_sample]:
            shutil.copyfile(tmp / "dumps" / f"{record.dump_id}.dump", sample / f"{record.dump_id}.dump")
    digest = tree_sha256(tmp)
    (tmp / _DIGEST_FILE).write_text(digest + "\n")
    os.replace(tmp, root)
    _evict(cache)
    return root, digest


@contextlib.contextmanager
def _pairs_disabled(disabled: bool):
    """Skip labeled-pair sampling, which is O(n^2) in the dump count.

    Dumps and records come from their own random stream, so they are the
    same bytes with or without pairs; only the stream corpus, which has no
    use for pairs, is generated this way.
    """
    if not disabled:
        yield
        return
    saved = synth.sample_pairs, synth.split_pairs_by_group
    synth.sample_pairs = lambda *args, **kwargs: []
    synth.split_pairs_by_group = lambda *args, **kwargs: ([], [])
    try:
        yield
    finally:
        synth.sample_pairs, synth.split_pairs_by_group = saved


def _generator_digest() -> str:
    """Cache entries are tied to the generator code and this file."""
    digest = hashlib.sha256()
    for path in (Path(synth.__file__), Path(synth.__file__).with_name("trainer.py"), Path(__file__)):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _evict(cache: Path) -> None:
    entries = sorted(
        (p for p in cache.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


def _read_truth(path: Path) -> tuple[list[str], dict[str, int]]:
    """truth.tsv lists dump ids in record (time) order; never sort them."""
    order: list[str] = []
    group: dict[str, int] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            dump_id, g = line.split("\t")
            order.append(dump_id)
            group[dump_id] = int(g)
    return order, group


def _crash_time(text: str) -> datetime.datetime:
    match = _TIME_RE.search(text)
    if match is None:
        raise ValueError("generated dump has no time: header")
    return datetime.datetime.fromisoformat(match.group(1))
