"""Command-line interface.

Four subcommands cover the experimental workflows:

    mavl translate --dataset corpus.json --target-lang KO --mock-script s.json
    mavl evaluate  --dataset corpus.json --hypotheses runs/.../hypotheses.jsonl
    mavl ablate    --dataset corpus.json --mock-script s.json --grid stages
    mavl stats     --dataset corpus.json

EN is always the source language; ``--target-lang`` picks the others.  Each
command takes only the flags its run reads, and a run setting left off the
command line takes ``RunConfig``'s default.

Flags may also come from a config file (``--config``) holding one KEY=VALUE
pair per line, with ``#`` comments.  A key is one of the command's long flag
names without its dashes (``format``, ``from-dubbed``), but not ``dataset``
or ``config``; a flag that takes no value is set with ``true`` or ``false``.
Explicit command-line flags win over file values, and ``--target-lang``
replaces the file's list.  Credentials are never accepted as flags or file
values: remote providers read their key from the environment variable named
by ``--api-key-env``.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from .errors import (
    ConfigError,
    DatasetParseError,
    DatasetValidationError,
    MavlError,
    ProviderError,
)
from .harness import (
    HypothesisSet,
    RunConfig,
    ThresholdExceededError,
    cmd_ablate,
    cmd_evaluate,
    cmd_stats,
    cmd_translate,
)
from .languages import BOM, Language
from .pipeline import Modality, PipelineVariant, PromptStyle
from .reports import dump_json, render_report_table, report_to_json

__all__ = ["main", "build_parser"]


VARIANT_CHOICES = {
    "full": dict(use_syllable_list=True, use_refine=True, style=PromptStyle.STAGED),
    "no-list": dict(use_syllable_list=False, use_refine=True, style=PromptStyle.STAGED),
    "no-refine": dict(use_syllable_list=True, use_refine=False, style=PromptStyle.STAGED),
    "minimal": dict(use_syllable_list=False, use_refine=False, style=PromptStyle.STAGED),
    "direct": dict(use_syllable_list=False, use_refine=False, style=PromptStyle.DIRECT),
}

_MODALITY_TOKENS = {
    "t": Modality.TEXT,
    "text": Modality.TEXT,
    "a": Modality.AUDIO,
    "audio": Modality.AUDIO,
    "v": Modality.VIDEO,
    "video": Modality.VIDEO,
}


def parse_modalities(spec: str) -> frozenset:
    mods = {Modality.TEXT}
    for token in spec.replace(",", "+").split("+"):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _MODALITY_TOKENS:
            raise ConfigError(f"unknown modality {token!r} (use t, a, v)")
        mods.add(_MODALITY_TOKENS[token])
    return frozenset(mods)


def load_config_file(path: str) -> dict:
    """KEY=VALUE per line; keys are long flag names, and an underscore may
    stand for a hyphen."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh.read().removeprefix(BOM).split("\n"), start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected KEY=VALUE, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip().lower().replace("_", "-")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="KEY=VALUE file with flag defaults")
    p.add_argument(
        "--target-lang", dest="target_langs", action="append", metavar="LANG",
        help="target language code, not EN (the source); repeat for several",
    )
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output root directory")
    p.add_argument("--provider", choices=["mock", "remote"])
    p.add_argument("--endpoint")
    p.add_argument("--model-id")
    p.add_argument("--api-key-env")


def _add_translate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=sorted(VARIANT_CHOICES))
    p.add_argument("--modalities", help="modality set, e.g. t, t+a, t+a+v")
    p.add_argument("--mock-script")
    p.add_argument("--parallelism", type=int)
    p.add_argument("--max-reprompts", type=int)


def _add_score_flags(p: argparse.ArgumentParser, formats: list[str]) -> None:
    p.add_argument("--beta", type=float)
    p.add_argument("--format", choices=formats, default="table", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mavl",
        description="Singable lyrics translation: pipeline, metrics, dataset tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name: str, help_text: str) -> argparse.ArgumentParser:
        # a run setting left out is left out of the namespace, so it takes
        # RunConfig's default rather than a parser copy of it
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--dataset", dest="dataset_path", required=True, metavar="PATH",
                       help="path to the dataset JSON")
        _add_run_flags(p)
        return p

    p_translate = run_command("translate", "translate dataset lines")
    _add_translate_flags(p_translate)
    # ablate runs every case to the end, whatever fails
    p_translate.add_argument("--failure-threshold", type=float)

    p_evaluate = run_command("evaluate", "score a hypothesis set")
    _add_score_flags(p_evaluate, ["csv", "json", "table"])
    p_evaluate.add_argument(
        "--hypotheses", default=None, help="hypotheses.jsonl from a translate run"
    )
    p_evaluate.add_argument(
        "--from-dubbed",
        action="store_true",
        default=False,
        help="score the dubbed reference lines themselves (human baseline)",
    )

    p_ablate = run_command("ablate", "run a variant comparison grid")
    _add_translate_flags(p_ablate)
    _add_score_flags(p_ablate, ["json", "table"])
    p_ablate.add_argument("--grid", choices=["stages", "modalities"], default="stages")

    p_stats = sub.add_parser("stats", help="dataset summary table")
    p_stats.add_argument("--dataset", dest="dataset_path", required=True, metavar="PATH")
    p_stats.add_argument("--format", choices=["json", "table"], default="table", dest="fmt")

    return parser


# a config file holds run flags, not its own path or the dataset a run reads
_NOT_CONFIG_KEYS = {"help", "config", "dataset_path"}


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    # a first pass reads the path as the final parse will, so "--config=FILE"
    # and abbreviations such as "--conf FILE" load it, and a missing value exits 2
    given = parser.parse_known_args(argv)[0]
    path = getattr(given, "config", None)
    if path is None:
        return
    # argparse has no public way to reach a subcommand's parser
    command = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)).choices[given.command]
    flags = {
        option[2:]: action
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and action.dest not in _NOT_CONFIG_KEYS
    }
    defaults = {}
    for key, value in load_config_file(path).items():
        action = flags.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if action.dest == "target_langs":
            # "append" would extend the file's list; an explicit flag replaces it
            if not hasattr(given, "target_langs"):
                defaults[action.dest] = [v.strip() for v in value.split(",") if v.strip()]
        elif action.nargs == 0:
            if value.lower() not in {"true", "false"}:
                raise ConfigError(f"config key {key!r} takes true or false, got {value!r}")
            defaults[action.dest] = value.lower() == "true"
        elif action.choices is not None and value not in action.choices:
            # argparse checks choices on the command line only
            raise ConfigError(
                f"config key {key!r} takes one of {', '.join(action.choices)}, "
                f"got {value!r}"
            )
        else:
            defaults[action.dest] = value
    command.set_defaults(**defaults)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's settings from the parsed names; one left out takes its default."""
    given = vars(args)
    settings = {name: given[name] for name in RunConfig._fields if name in given}
    # these two fields are parsed from the codes and names the flags take
    try:
        settings["target_langs"] = tuple(map(Language.parse, given.get("target_langs", ())))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    variant = dict(VARIANT_CHOICES[given["variant"]]) if "variant" in given else {}
    if "modalities" in given:
        variant["modalities"] = parse_modalities(given["modalities"])
    settings["variant"] = PipelineVariant(**variant)
    return RunConfig(**settings)


def _run_translate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    outcome = cmd_translate(config)
    for warning in outcome.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"run directory: {outcome.run_dir}")
    print(f"translated lines: {len(outcome.hypotheses.entries)}")
    print(f"failed lines: {len(outcome.failures)}")
    return 0


def _load_hypotheses(args: argparse.Namespace) -> HypothesisSet | None:
    """The ``--hypotheses`` file; None for ``--from-dubbed``, which evaluate
    builds from the dataset it loads."""
    if args.from_dubbed and args.hypotheses:
        raise ConfigError("pass either --hypotheses or --from-dubbed, not both")
    if args.from_dubbed:
        return None
    if not args.hypotheses:
        raise ConfigError("evaluate needs --hypotheses or --from-dubbed")
    try:
        with open(args.hypotheses, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read hypotheses: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"hypotheses are not UTF-8 at byte {exc.start}: "
                                f"{exc.reason}", byte_offset=exc.start) from None
    return HypothesisSet.from_jsonl(text)


def _run_evaluate(args: argparse.Namespace) -> int:
    outcome = cmd_evaluate(_config_from_args(args), _load_hypotheses(args))
    if args.fmt == "csv":
        with open(outcome.run_dir / "scores.csv", encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    elif args.fmt == "json":
        if outcome.report is not None:
            sys.stdout.write(report_to_json(outcome.report))
        else:
            sys.stdout.write("{}\n")
    else:
        if outcome.report is not None:
            sys.stdout.write(render_report_table(outcome.report))
        print(f"scored rows: {outcome.scored}")
        print(f"skipped rows: {outcome.skipped}")
    print(f"run directory: {outcome.run_dir}", file=sys.stderr)
    return 0


def _run_ablate(args: argparse.Namespace) -> int:
    outcome = cmd_ablate(_config_from_args(args), grid=args.grid)
    if args.fmt == "json":
        sys.stdout.write(dump_json(outcome.summaries))
    else:
        sys.stdout.write(outcome.table)
    print(f"run directory: {outcome.run_dir}", file=sys.stderr)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    stats, table = cmd_stats(args.dataset_path)
    if args.fmt == "json":
        payload = {lang.value: per._asdict() for lang, per in stats.per_language.items()}
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write(table)
    return 0


_DISPATCH = {
    "translate": _run_translate,
    "evaluate": _run_evaluate,
    "ablate": _run_ablate,
    "stats": _run_stats,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetParseError, DatasetValidationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ThresholdExceededError as exc:
        print(f"failure threshold exceeded: {exc}", file=sys.stderr)
        return 5
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 4
    except MavlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
