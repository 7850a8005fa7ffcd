"""``repro audit`` — run the invariant checker from the command line.

Exit codes follow the convention the rest of the CLI uses:

* ``0`` — scanned clean (no non-suppressed findings);
* ``1`` — findings reported;
* ``2`` — usage error (unknown rule id in ``--select``, missing path,
  ``--changed`` outside a git checkout).

Output formats:

* ``--format text`` — one human-readable line per finding;
* ``--format json`` — a stable machine-readable document (schema
  version 1) for CI: a ``findings`` list of
  ``{rule_id, path, line, message, severity}`` objects plus a
  ``summary`` with per-rule counts (and per-rule ``timings`` when
  ``--stats`` is given);
* ``--format sarif`` — a SARIF 2.1.0 document for code-scanning
  uploads (see :mod:`repro.audit.sarif`).

``--changed[=REF]`` scopes the scan to the ``.py`` files git reports as
modified against ``REF`` (default ``HEAD``) plus untracked files — the
fast local pre-push loop. Caveat: project-scope rules (PURE*, LIFE002)
see only the changed subset, so cross-file findings whose evidence
spans an *unchanged* file can be missed; CI always runs the full tree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.audit.engine import default_rules, run_audit

#: JSON output schema version (bump on incompatible change).
JSON_SCHEMA_VERSION = 1


def default_paths() -> list[str]:
    """Audit the installed package when no paths are given."""
    import repro

    return [str(Path(repro.__file__).resolve().parent)]


def changed_python_files(ref: str) -> list[Path] | None:
    """``.py`` files modified vs ``ref`` plus untracked ones; None on error."""

    def _git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    try:
        top = Path(_git("rev-parse", "--show-toplevel").strip())
        listed = _git("diff", "--name-only", ref, "--").splitlines()
        listed += _git(
            "ls-files", "--others", "--exclude-standard"
        ).splitlines()
    except (OSError, subprocess.CalledProcessError):
        return None
    out = sorted(
        {
            top / line.strip()
            for line in listed
            if line.strip().endswith(".py")
        }
    )
    return [p for p in out if p.exists()]


def _scope_to(paths: Sequence[str], files: list[Path]) -> list[Path]:
    """Changed files restricted to the requested paths (if any)."""
    roots = [Path(p).resolve() for p in paths]
    scoped = []
    for f in files:
        rf = f.resolve()
        for root in roots:
            if rf == root or root in rf.parents:
                scoped.append(f)
                break
    return scoped


def add_audit_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``audit`` subcommand on the main CLI parser."""
    auditp = sub.add_parser(
        "audit",
        help=(
            "statically check repo invariants (determinism, span "
            "discipline, worker purity, unit safety, async safety, "
            "span lifecycles)"
        ),
    )
    auditp.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to scan (default: the repro package)",
    )
    auditp.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
        help=(
            "findings as human-readable lines, a JSON document, or a "
            "SARIF 2.1.0 document"
        ),
    )
    auditp.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all rules)",
    )
    auditp.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "scan only .py files git reports changed vs REF (default "
            "HEAD) plus untracked files; use --changed=REF when also "
            "passing paths"
        ),
    )
    auditp.add_argument(
        "--stats",
        action="store_true",
        help="report per-rule wall-clock timing",
    )
    auditp.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its description and exit",
    )


def main(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}  {rule.description}")
        return 0
    changed_ref = getattr(args, "changed", None)
    paths = args.paths or ([] if changed_ref is not None else default_paths())
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(
            "error: no such path(s): " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    if changed_ref is not None:
        files = changed_python_files(changed_ref)
        if files is None:
            print(
                "error: --changed requires a git checkout and a "
                f"resolvable ref ({changed_ref!r})",
                file=sys.stderr,
            )
            return 2
        # With explicit paths, scope the changed set to them; bare
        # --changed audits every changed file in the checkout.
        scan: list[Path | str] = (
            list(_scope_to(paths, files)) if paths else list(files)
        )
    else:
        scan = list(paths)
    select = args.select.split(",") if args.select else None
    started = time.perf_counter()
    try:
        result = run_audit(scan, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings, n_files = result.findings, result.n_files
    total_s = time.perf_counter() - started
    want_stats = getattr(args, "stats", False)

    if args.output_format == "json":
        by_rule: dict[str, int] = {}
        for finding in findings:
            by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
        doc = {
            "version": JSON_SCHEMA_VERSION,
            "findings": [f.as_dict() for f in findings],
            "summary": {
                "files_scanned": n_files,
                "findings": len(findings),
                "by_rule": dict(sorted(by_rule.items())),
            },
        }
        if want_stats:
            doc["summary"]["timings"] = {
                rule_id: round(seconds, 6)
                for rule_id, seconds in sorted(
                    result.rule_timings.items()
                )
            }
        print(json.dumps(doc, indent=2, sort_keys=False))
    elif args.output_format == "sarif":
        from repro.audit.sarif import render_sarif

        rules = default_rules()
        if select is not None:
            wanted = {s.strip().upper() for s in select if s.strip()}
            rules = [r for r in rules if r.rule_id in wanted]
        print(json.dumps(render_sarif(findings, rules), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        print(
            f"audit: {n_files} file(s) scanned, {len(findings)} {noun}",
            file=sys.stderr,
        )
    if want_stats and args.output_format != "json":
        # Slowest first; the lazily built call graph is charged to the
        # first project rule that requests it.
        ordered = sorted(
            result.rule_timings.items(), key=lambda kv: -kv[1]
        )
        for rule_id, seconds in ordered:
            print(f"stats: {rule_id:9s} {seconds * 1000:8.2f} ms", file=sys.stderr)
        print(
            f"stats: total     {total_s * 1000:8.2f} ms "
            f"({n_files} files)",
            file=sys.stderr,
        )
    return 1 if findings else 0


def run(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Standalone entry point (``python -m repro.audit``)."""
    parser = argparse.ArgumentParser(prog="repro-audit")
    sub = parser.add_subparsers(dest="command", required=True)
    add_audit_parser(sub)
    return main(parser.parse_args(["audit", *(argv or [])]))
