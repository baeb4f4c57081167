"""INI-style configuration with sections [model], [margins], [train], [features].

The keys of [margins] and [train] are the fields of `negation.Margins` and
`trainer.TrainConfig`, each value cast to the type of the field's default.
Unknown sections or keys are rejected so typos fail loudly; so is
`[DEFAULT]`, whose keys configparser would otherwise copy into every
section (`seed` there would set both `[model]` and `[train]` seeds).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .featio import utf8_error
from .negation import Margins
from .trainer import TrainConfig


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


# Section -> key -> the cast of its raw value, in the order read. A field of
# Margins or TrainConfig is a key; TrainConfig.margins is [margins] itself.
_SCHEMA = {
    "model": {"d": int, "heads": int, "seed": int},
    "margins": {k: type(v) for k, v in vars(Margins()).items()},
    "train": {k: type(v) for k, v in vars(TrainConfig()).items() if k != "margins"},
    "features": {"video_spaces": _space_list, "text_spaces": _space_list},
}


def load_settings(path=None) -> Settings:
    """Parse a config file; with path=None return pure defaults."""
    settings = Settings()
    if path is None:
        return settings
    # No header can name the empty section, so [DEFAULT] is an ordinary
    # section here and is refused as unknown, instead of configparser
    # copying its keys into every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise ConfigError(utf8_error(path)) from None
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(parser[section]) - set(_SCHEMA[section]))
        if unknown:
            raise ConfigError(f"{path}: unknown keys in [{section}]: {unknown}")

    def read(section: str) -> dict:
        """The keys set in [section], each value cast as _SCHEMA says."""
        values = {}
        for key, cast in _SCHEMA[section].items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[key] = cast(raw)
                except ValueError:
                    raise ConfigError(
                        f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}"
                    ) from None
        return values

    try:
        model = read("model")
        train = TrainConfig(margins=Margins(**read("margins")), **read("train"))
        features = read("features")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    model_seed = model.pop("seed", settings.model_seed)  # [model] seed is Settings.model_seed
    return replace(settings, model_seed=model_seed, train=train, **model, **features)
