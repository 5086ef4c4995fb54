"""Output digests, correctness checks and detection quality for one pass."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

from scipy.stats import rankdata

# which stage writes which output file (exact name or prefix)
STAGE_FILES = {
    "build": ("follower.tsv", "retweet_", "rates.csv", "daily_active.csv"),
    "detect": ("posterior_", "bots.txt", "histogram.csv"),
    "classify": ("accounts.csv", "group_summary.csv"),
    "ghic": ("ghic_series.csv", "ghic_per_bot.csv"),
    "report": ("report.txt",),
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _combine(lines) -> str:
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def tree_digests(directory: Path) -> dict:
    """SHA-256 of every file, one combined digest, and one digest per stage.

    A stage's digest covers the files it writes plus its own section of
    ``manifest.json``, so a mismatch points at the stage that produced it.
    """
    files = {p.name: sha256_file(p) for p in sorted(directory.iterdir()) if p.is_file()}
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else {}
    stages = {
        stage: _combine(
            [f"{name} {d}\n" for name, d in files.items() if name.startswith(prefixes)]
            + [json.dumps(manifest.get(stage), sort_keys=True)]
        )
        for stage, prefixes in STAGE_FILES.items()
    }
    return {
        "files": files,
        "tree": _combine(f"{name} {d}\n" for name, d in files.items()),
        "stages": stages,
        "bytes": sum(p.stat().st_size for p in directory.iterdir() if p.is_file()),
    }


def source_digest(src: Path) -> str:
    """Digest of the package sources, which identifies the commit being measured."""
    paths = sorted(p for p in (src / "botimpact").rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    return _combine(f"{p.relative_to(src).as_posix()} {sha256_file(p)}\n" for p in paths)


# -- checks -------------------------------------------------------------------------


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def build_conserves_corpus(out_dir: Path, summary: dict) -> list[str]:
    """Criterion-9 invariant: the build manifest counts every synth tweet and retweet."""
    build = _manifest(out_dir).get("build", {})
    problems = []
    for key, expected in (("tweets_parsed", summary["tweets"]),
                          ("retweets_total", summary["retweets"])):
        if build.get(key) != expected:
            problems.append(f"manifest build.{key} = {build.get(key)}, corpus has {expected}")
    return problems


def ghic_series_complete(out_dir: Path) -> list[str]:
    """One finite ``ghic_series.csv`` row for each computed day and group."""
    ghic = _manifest(out_dir).get("ghic", {})
    with open(out_dir / "ghic_series.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(row["day"], row["group"]) for row in rows]
    days = sorted({day for day, _ in keys})
    expected = {(day, group) for day in days for group in ghic.get("groups", [])}
    problems = []
    if len(days) != ghic.get("days_computed"):
        problems.append(f"{len(days)} days in ghic_series.csv, manifest says "
                        f"{ghic.get('days_computed')}")
    if len(keys) != len(set(keys)) or set(keys) != expected:
        problems.append(f"{len(keys)} rows, expected one per day and group ({len(expected)})")
    bad = [k for k, row in zip(keys, rows) if not math.isfinite(float(row["ghic"]))]
    if bad:
        problems.append(f"non-finite ghic at {bad[:3]}")
    return problems


def mann_whitney_auc(positive: list[float], negative: list[float]) -> float:
    """Tie-aware area under the ROC curve."""
    ranks = rankdata(positive + negative)
    n_pos, n_neg = len(positive), len(negative)
    u = float(ranks[:n_pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def detection_quality(out_dir: Path, corpus_dir: Path) -> dict:
    """``bots.txt`` and the max-over-days marginal scored against the planted labels."""
    with open(corpus_dir / "labels_truth.csv", newline="", encoding="utf-8") as fh:
        truth = {row["account_id"]: row["is_bot"] == "1" for row in csv.DictReader(fh)}
    flagged = set((out_dir / "bots.txt").read_text(encoding="utf-8").split())
    score: dict[str, float] = defaultdict(float)  # 0 for accounts never seen
    for path in sorted(out_dir.glob("posterior_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                account = row["account_id"]
                score[account] = max(score[account], float(row["bot_probability"]))
    bots = {a for a, is_bot in truth.items() if is_bot}
    hits = len(flagged & bots)
    return {
        "bot_precision": hits / len(flagged) if flagged else 0.0,
        "bot_recall": hits / len(bots),
        "bot_auc": mann_whitney_auc([score[a] for a in sorted(bots)],
                                    [score[a] for a in sorted(set(truth) - bots)]),
        "flagged": len(flagged),
        "planted": len(bots),
    }
