"""Pipeline configuration: one flat ``key = value`` file, ``--out`` wins.

The one analysis setting is the bot threshold, 0.8 (strictly above).  Every
numeric field is validated against its documented range at load time; the
``bp_psi_*`` defaults and ranges are those of ``botdetect.FactorGraphParams``,
kept there only.  The partisan cutoff 0.5 (anti at or below) and the
followings cap 2000 (``pipeline``), belief propagation's prior, interaction
cap, damping, sweep cap and tolerance (that class's defaults), the
histogram's 20 bins, the four GHIC groups and the stubborn percentiles 10/90
(``opinion``) are constants, with no key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path

from .botdetect import FactorGraphParams


class ConfigError(ValueError):
    """Bad configuration file or field value."""


@dataclass
class PipelineConfig:
    # input/output paths
    tweets: str = "tweets.jsonl"
    profiles: str = "profiles.jsonl"
    ratings: str = "ratings.csv"
    qanon_keywords: str = ""  # empty -> packaged list
    out_dir: str = "out"
    # bot detection
    bot_threshold: float = 0.8
    bp_psi_hh: float = FactorGraphParams.psi_hh
    bp_psi_hb: float = FactorGraphParams.psi_hb
    bp_psi_bh: float = FactorGraphParams.psi_bh
    bp_psi_bb: float = FactorGraphParams.psi_bb
    # stages run serially; the key is kept, at 1, for configs that still set it
    workers: int = 1

    def validate(self) -> None:
        check_finite(self, ConfigError)
        if not 0.5 < self.bot_threshold <= 1.0:
            raise ConfigError(f"bot_threshold must be in (0.5, 1.0], got {self.bot_threshold}")
        try:
            self.bp_params()
        except ValueError as exc:  # its ranges are kept in one place
            raise ConfigError(f"bp_{exc}") from None
        if self.workers != 1:
            raise ConfigError(f"workers must be 1 (stages run serially), got {self.workers}")

    def bp_params(self) -> FactorGraphParams:
        """The four ``bp_psi_*`` potentials as belief propagation's parameters;
        the others keep their defaults."""
        return FactorGraphParams(**{f.name: getattr(self, f"bp_{f.name}")
                                    for f in fields(FactorGraphParams)
                                    if hasattr(self, f"bp_{f.name}")})

    @staticmethod
    def load(path: str | Path | None = None, out_dir: str | None = None) -> "PipelineConfig":
        """Defaults, then the config file, then ``out_dir`` if given; validated."""
        kwargs: dict = {}
        if path is not None:
            if not Path(path).exists():
                raise ConfigError(f"config file not found: {path}")
            kwargs = read_key_values(path, PipelineConfig, ConfigError)
        if out_dir is not None:
            kwargs["out_dir"] = out_dir
        cfg = PipelineConfig(**kwargs)
        cfg.validate()
        return cfg

    def snapshot(self) -> dict:
        """Stable mapping of every setting, recorded into run manifests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def check_finite(obj: object, error: type[ValueError]) -> None:
    """``error`` naming the first float field of dataclass ``obj`` that is NaN or
    infinite: NaN passes every range check and infinity every lower bound."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")


def read_key_values(path: str | Path, cls: type, error: type[ValueError]) -> dict:
    """The ``key = value`` lines of ``path`` (``#`` starts a comment), each value
    coerced to the type of the dataclass field it names; ``error`` otherwise."""
    known = {f.name: f.type for f in fields(cls)}
    kwargs: dict = {}
    for lineno, raw in enumerate(read_text(path, error).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise error(f"{path}:{lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _COERCE.get(known[key], str)(value)
        except ValueError:
            raise error(
                f"{path}:{lineno}: field {key!r}: cannot parse {value!r} as {known[key]}"
            ) from None
    return kwargs


def read_text(path: str | Path, error: type[ValueError]) -> str:
    """The text of the UTF-8 file ``path``, line ends as written; a file that
    exists but cannot be read, or is not UTF-8, raises ``error`` naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise  # a missing input keeps its own exit code
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: unreadable ({exc})") from None


# field annotations are strings under ``from __future__ import annotations``
_COERCE = {"int": int, "float": float, "date": date.fromisoformat}
