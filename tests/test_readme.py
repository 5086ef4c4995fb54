"""The README's library block runs as written against a small corpus."""

from pathlib import Path

import numpy as np

from botimpact.config import PipelineConfig
from botimpact.graph import load_edge_list
from botimpact.pipeline import (_read_manifest, account_table, load_accounts, stage_build,
                                stage_classify, stage_detect)
from botimpact.synth import SynthSpec, generate

from oracles import fixed_point_oracle

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    after = text.split("The same operations are importable", 1)[1]
    return after.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_runs(tmp_path, monkeypatch):
    spec = SynthSpec(seed=3, topology="two_block_polarized", days=2, humans_per_block=12,
                     bots_per_block=3, qanon_bot_frac=0.5, bot_rate=20.0, retweet_frac=0.6)
    generate(spec, tmp_path / "corpus")
    cfg = PipelineConfig(tweets=str(tmp_path / "corpus" / "tweets.jsonl"),
                         profiles=str(tmp_path / "corpus" / "profiles.jsonl"),
                         ratings=str(tmp_path / "corpus" / "ratings.csv"),
                         out_dir=str(tmp_path / "out"),
                         bp_psi_hh=1.5, bp_psi_hb=2.0, bp_psi_bh=1.0, bp_psi_bb=0.5)
    for stage in (stage_build, stage_detect, stage_classify):
        stage(cfg)

    # the names the block leaves to the reader, over the day graph's nodes
    manifest = _read_manifest(tmp_path / "out")
    accounts = load_accounts(tmp_path / "out", manifest)
    table = account_table(tmp_path / "out", manifest, accounts)
    nodes = load_edge_list(tmp_path / "out" / "retweet_2020-01-01.cols", accounts).labels
    bot = table.bot[nodes]
    assert bot.any() and not bot.all()
    namespace = {"accounts": accounts, "lam": table.tweet_rate[nodes],
                 "measured": table.opinion[nodes], "bot": bot, "scored": table.scored[nodes],
                 "targets": bot, "anchor": table.opinion[nodes]}
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_block(), str(README), "exec"), namespace)
    # the block's solve against the averaging sweeps, on the block's own arrays
    oracle = fixed_point_oracle(*(namespace[name] for name in ("src", "tgt", "lam", "final",
                                                               "anchor")))
    assert np.allclose(namespace["opinion"], oracle, atol=1e-8)
