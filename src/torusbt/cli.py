"""torusbt command line: run one engine command against a manifest file."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ManifestError, TorusBTError
from .manifest import COMMANDS, check_option, load_manifest, run_manifest


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torusbt",
        description="Exact Birch-Tate predictions for tori over Q.")
    p.add_argument("command", choices=COMMANDS,
                   help="which computation to run")
    p.add_argument("manifest", help="manifest file (see README for the format)")
    p.add_argument("--json", dest="json_out", metavar="OUT.json",
                   help="write the report here as JSON (default: stdout)")
    p.add_argument("--cache-dir", dest="cache_dir",
                   help="reuse reports for identical inputs from this directory")
    p.add_argument("--prime-cap", dest="prime_cap", type=int,
                   help="largest prime for local point-count tables")
    p.add_argument("--stab-cap", dest="stab_cap", type=int,
                   help="maximum stabilization depth per prime")
    p.add_argument("--debug-oracles", action="store_true",
                   help="run the extra candidate-prime check")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"prime_cap": args.prime_cap, "stab_cap": args.stab_cap,
                 "debug_oracles": args.debug_oracles or None}
    try:
        man = load_manifest(args.manifest)
        for key, value in overrides.items():
            if value is not None:
                man.options[key] = check_option(key, value)
    except FileNotFoundError:
        print(f"torusbt: no such manifest: {args.manifest}", file=sys.stderr)
        return 2
    except ManifestError as exc:
        print(f"torusbt: manifest error: {exc}", file=sys.stderr)
        return 2

    man.commands = (args.command,)

    try:
        report, hit = run_manifest(man, cache_dir=args.cache_dir)
    except TorusBTError as exc:
        print(f"torusbt: {exc}", file=sys.stderr)
        return 1
    if hit:
        print("torusbt: served from cache", file=sys.stderr)

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"torusbt: report written to {args.json_out}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
