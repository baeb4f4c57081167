"""INI-style configuration with sections [model], [margins], [train], [features].

Every default in the package is overridable here; unknown sections or keys
are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .errors import ConfigError
from .featio import utf8_error
from .negation import Margins
from .trainer import TrainConfig

_KNOWN = {
    "model": {"d", "heads", "seed"},
    "margins": {"m0", "m1", "m2", "m3", "m4", "lambda1"},
    "train": {
        "epochs",
        "batch_size",
        "learning_rate",
        "lr_decay",
        "seed",
        "validation_metric",
        "clip_norm",
    },
    "features": {"video_spaces", "text_spaces"},
}


@dataclass
class Settings:
    d: int = 512
    heads: int = 2
    model_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    video_spaces: list[str] | None = None  # None = every space in the manifest
    text_spaces: list[str] | None = None


def _space_list(raw: str) -> list[str] | None:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    return names or None


def load_settings(path=None) -> Settings:
    """Parse a config file; with path=None return pure defaults."""
    settings = Settings()
    if path is None:
        return settings
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise ConfigError(utf8_error(path)) from None
    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(parser[section]) - _KNOWN[section])
        if unknown:
            raise ConfigError(f"{path}: unknown keys in [{section}]: {unknown}")

    def get(section: str, key: str, cast, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(
                    f"{path}: [{section}] {key} = {raw!r} is not a valid {cast.__name__}"
                ) from None
        return default

    settings.d = get("model", "d", int, settings.d)
    settings.heads = get("model", "heads", int, settings.heads)
    settings.model_seed = get("model", "seed", int, settings.model_seed)

    try:
        # Every margin is a float; vars() lists them in field order.
        margins = Margins(**{k: get("margins", k, float, v) for k, v in vars(Margins()).items()})
        td = TrainConfig()
        settings.train = TrainConfig(
            epochs=get("train", "epochs", int, td.epochs),
            batch_size=get("train", "batch_size", int, td.batch_size),
            learning_rate=get("train", "learning_rate", float, td.learning_rate),
            lr_decay=get("train", "lr_decay", float, td.lr_decay),
            seed=get("train", "seed", int, td.seed),
            margins=margins,
            validation_metric=get("train", "validation_metric", str, td.validation_metric),
            clip_norm=get("train", "clip_norm", float, td.clip_norm),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    settings.video_spaces = get("features", "video_spaces", _space_list, None)
    settings.text_spaces = get("features", "text_spaces", _space_list, None)
    return settings
