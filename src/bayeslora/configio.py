"""Flat key=value configuration files (INI sections) for the benchmark CLI.

``_LAYOUT`` maps every key to its configuration field; the example config
written by ``write_example_config`` carries each key with its default, and
CLI flags override file values.  Values are read raw, so a ``%`` is a
literal character.  A value that is empty, holds an empty list entry, does
not convert or is out of range raises a ``ValueError`` naming its
``section.key``; a file that is not INI raises one naming the file and the
line.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .baselines import METHODS, BaselineSpec
from .tasks import TaskSpec
from .textio import write_lines
from .training import TrainConfig

__all__ = ["SuiteConfig", "load_config", "write_example_config"]


@dataclass
class SuiteConfig:
    task: TaskSpec = field(default_factory=TaskSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    hidden: tuple[int, ...] = (32, 32)
    rank: int = 2
    methods: tuple[str, ...] = METHODS
    seeds: tuple[int, ...] = (0, 1, 2)
    n_samples_list: tuple[int, ...] = (0, 5, 10)
    data_seed_offset: int = 1000
    baseline: BaselineSpec = field(default_factory=lambda: BaselineSpec("mle"))

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("methods must list at least one method")
        for name in self.methods:
            if name not in METHODS:
                raise ValueError(f"methods holds unknown method {name!r}, expected one of {METHODS}")
        # Each adapter layer takes a rank r with 1 <= r < min(m, n), so every width is >= 2.
        for name, values, floor in (
            ("hidden", self.hidden, 2), ("rank", (self.rank,), 1), ("seeds", self.seeds, 0),
            ("n_samples", self.n_samples_list, 0), ("data_seed_offset", (self.data_seed_offset,), 0),
        ):
            if not values:
                raise ValueError(f"{name} must list at least one value")
            if any(type(value) is not int for value in values):
                raise ValueError(f"{name} takes integers only, got {_text(values)}")
            if min(values) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {_text(values)}")
        # A repeated grid entry only adds copies, and summary.csv would count them as seeds.
        for name, values in (("methods", self.methods), ("seeds", self.seeds),
                             ("n_samples", self.n_samples_list)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats an entry, got {_text(values)}")

    def net_shape(self) -> tuple[int, tuple[int, ...], int, int]:
        return (self.task.input_dim, self.hidden, self.task.n_classes, self.rank)


# TrainConfig fields read from [schedule], with their key there.
_SCHEDULE_FIELDS = {"kl_mode": "mode", "gamma": "gamma"}

# Every key of a config file, section by section, in file order, as
# (key, owner, field): the value sets ``field`` of the SuiteConfig attribute
# ``owner`` ("" for SuiteConfig itself).
_LAYOUT = {
    "task": [(f.name, "task", f.name) for f in fields(TaskSpec)],
    "net": [("hidden", "", "hidden"), ("rank", "", "rank")],
    "train": [(f.name, "train", f.name) for f in fields(TrainConfig) if f.name not in _SCHEDULE_FIELDS],
    "schedule": [(key, "train", name) for name, key in _SCHEDULE_FIELDS.items()],
    "suite": [("methods", "", "methods"), ("seeds", "", "seeds"),
              ("n_samples", "", "n_samples_list"), ("data_seed_offset", "", "data_seed_offset")],
    "baselines": [(f.name, "baseline", f.name) for f in fields(BaselineSpec) if f.name != "kind"],
}


def _parse(key: str, raw: str, default):
    """``raw`` converted to the type of the key's default value."""
    if isinstance(default, tuple):
        conv = str if key == "methods" else int
        tokens = [tok.strip() for tok in raw.split(",")]
        if "" in tokens:
            raise ValueError(f"empty list entry in {raw!r}")
        return tuple(map(conv, tokens))
    return type(default)(raw)


def _syntax_error(path: str, exc: configparser.Error) -> ValueError:
    """``exc``, raised while reading the INI syntax of ``path``, as a
    ValueError naming the file and the line."""
    if isinstance(exc, configparser.DuplicateOptionError):
        line, reason = exc.lineno, f"key {exc.option!r} repeats in section [{exc.section}]"
    elif isinstance(exc, configparser.DuplicateSectionError):
        line, reason = exc.lineno, f"section [{exc.section}] repeats"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        line, reason = exc.lineno, f"{exc.line.strip()!r} comes before any [section] header"
    elif isinstance(exc, configparser.ParsingError):
        line, reason = exc.errors[0][0], "not a [section] header, a key = value line or a continuation"
    else:
        return ValueError(f"{path}: {exc}")
    return ValueError(f"{path}, line {line}: {reason}")


def load_config(path: str) -> SuiteConfig:
    """Config from an INI file; absent keys keep their default, and an empty
    value is a bad value like any other.

    Keys apply one at a time, in file order, each by one validated
    ``replace`` of the object that owns it, so a value that fails a range
    check raises a ValueError naming its ``section.key``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise _syntax_error(path, exc) from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    default = SuiteConfig()
    # Owner "" is the SuiteConfig itself; the nested owners join it once, at the end.
    owners = {"": default, "task": default.task, "train": default.train, "baseline": default.baseline}
    for section, keys in _LAYOUT.items():
        values = dict(parser.items(section)) if parser.has_section(section) else {}
        for key, owner, name in keys:
            if key not in values:
                continue
            try:
                value = _parse(key, values[key].strip(), getattr(getattr(default, owner, default), name))
                owners[owner] = replace(owners[owner], **{name: value})
            except ValueError as exc:
                raise ValueError(f"{section}.{key}: {exc}") from None
    cfg = owners.pop("")
    return replace(cfg, **owners)


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(getattr(value, "value", value))


def write_example_config(path: str) -> None:
    """Write a config carrying every tunable key with its default value."""
    cfg = SuiteConfig()
    lines = [
        "# bayeslora benchmark configuration (flat key = value, INI sections).",
        "# CLI flags override file values.",
    ]
    for section, keys in _LAYOUT.items():
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {_text(getattr(getattr(cfg, owner, cfg), name))}" for key, owner, name in keys]
    write_lines(path, lines)
