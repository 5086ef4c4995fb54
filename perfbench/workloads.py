"""The benchmark's workloads: a seeded synth corpus and one pipeline config each.

Every workload runs the same five stages with ``workers = 1`` and the README
potential table; only the corpus differs, and each corpus is chosen so that a
different layer does most of the work (see README.md in this directory).
"""

from __future__ import annotations

from dataclasses import dataclass

# README potential table: prolific retweeters cross the 0.8 bot threshold under it
POTENTIALS = {"bp_psi_hh": 1.5, "bp_psi_hb": 2.0, "bp_psi_bh": 1.0, "bp_psi_bb": 0.5}

DEFAULT_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # SynthSpec fields except the seed
    # bot_precision, bot_recall, bot_auc at DEFAULT_SEED, checked on every run at that seed
    baseline: tuple[float, float, float]

    def synth_spec(self, seed: int, **overrides):
        from botimpact.synth import SynthSpec

        return SynthSpec(seed=seed, **{**self.spec, **overrides})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="polarized-1k",
            why="criterion-8 accounts and rates: GHIC is about 40% of the pipeline, and its small daily networks take the dense solver branch",
            # retweet_frac is twice the generator default: at 0.3 the potential table flags
            # 0-7 of the 60 bots depending on the seed, which changes how many GHIC groups
            # are non-empty and so how much work a run does; at 0.6 it flags all of them.
            spec=dict(topology="two_block_polarized", days=10, humans_per_block=470,
                      bots_per_block=30, qanon_bot_frac=0.3, human_rate=0.5, bot_rate=20.0,
                      p_intra=0.02, eps=0.1, retweet_frac=0.6),
            baseline=(1.0, 1.0, 1.0),
        ),
        Workload(
            name="amplifier-1.6k",
            why="bots retweet heavily, so belief propagation and tweet parsing dominate",
            spec=dict(topology="planted_bot_retweet", days=2, n_bots=100, n_humans=1500,
                      human_rate=1.0, bot_rate=40.0, bot_rt_human=20.0, human_rt_human=8.0),
            baseline=(0.8130081300813008, 1.0, 1.0),
        ),
    )
}


def config_text() -> str:
    """The pipeline config; paths are relative so outputs do not depend on the checkout."""
    lines = {
        "tweets": "corpus/tweets.jsonl",
        "profiles": "corpus/profiles.jsonl",
        "ratings": "corpus/ratings.csv",
        "out_dir": "out",
        "workers": 1,
        **POTENTIALS,
    }
    return "".join(f"{key} = {value}\n" for key, value in lines.items())
