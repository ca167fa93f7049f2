#!/usr/bin/env python3
"""lfrc_lint — static LFRC-compliance checker for this repository.

The paper's transformation (GC-dependent lock-free structure -> LFRC) is
only sound for *LFRC-compliant* code: shared pointers touched exclusively
through the load/store/copy/destroy/CAS/DCAS operation set, which this
repo expresses as the lfrc::smr policy/guard seam. This tool mechanically
enforces that discipline — and, since v2, the internal disciplines the
engines themselves depend on — via a small analysis core (analysis.py:
per-function CFGs, a call graph, fixed-point escape summaries):

  R1  no raw read/write/CAS on shared node pointer cells — all access via
      policy link/guard operations
  R2  guard discipline: protect/traverse results must not escape their
      guard's scope, tracked interprocedurally through arbitrary call
      depth (returns, member stores, helper chains)
  R3  retire-once: retire_unlinked must be CFG-dominated by the success
      edge of an unlink CAS/DCAS (or annotated with a proof)
  R4  no direct new/delete of policy-managed node types (owner/make_owner
      and reset_chain/smr_dispose own allocation and teardown)
  R5  smr_children completeness: every link/vslot member enumerated, flags
      never enumerated, smr_link_count consistent (the compile-time trait
      smr::detail::children_cover_all_links_v mirrors this in-template)
  R6  memory-order discipline: every non-seq_cst atomic op in src/smr,
      src/dcas, src/alloc, src/reclaim, src/net carries
      '// lfrc-lint: order(<key>)' naming its pairing; keys resolve to
      >= 2 sites per run (--order-table emits the fence-pairing artifact)
  R7  descriptor-sequence discipline (reuse engine): per-use descriptor
      reads re-validated against the sequence, decision CAS carries it

Frontend: a self-contained lexer/block-tree model (cpp_model.py), python3
stdlib only, so the check runs on every host.

Usage:
  lfrc_lint.py --root REPO [PATHS...]       lint paths (default: src)
  lfrc_lint.py --root REPO --self-test      run the fixture corpus
  lfrc_lint.py --root REPO --sarif OUT ...  also write SARIF 2.1.0
  lfrc_lint.py --root REPO --order-table OUT src   fence-pairing table
  lfrc_lint.py --list-rules
Exit codes: 0 clean, 1 findings (or fixture expectation mismatch), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cpp_model import SourceModel  # noqa: E402
from rules import (  # noqa: E402
    RULES, Finding, OrderSite, order_pairing_findings, order_table,
    run_rules,
)

CXX_EXTS = (".hpp", ".h", ".cpp", ".cc", ".cxx")

RULE_DOC = {
    "R1": "no raw atomic access to shared node cells outside policy internals",
    "R2": "guard-protected pointers must not escape the guard's scope "
          "(interprocedural, fixed-point over the call graph)",
    "R3": "retire_unlinked must be CFG-dominated by an unlink-CAS success edge",
    "R4": "no direct new/delete of policy-managed node types",
    "R5": "smr_children enumerates exactly the link/vslot members (+ smr_link_count)",
    "R6": "non-seq_cst atomic ops carry order(<pairing>) annotations that "
          "resolve to a counterpart site",
    "R7": "pooled-descriptor reads re-validated against the sequence; "
          "decision CAS carries it",
}

def collect_files(root: str, paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = [d for d in dirnames if not d.startswith(".")]
                for f in sorted(filenames):
                    if f.endswith(CXX_EXTS):
                        files.append(os.path.join(dirpath, f))
        else:
            print(f"lfrc_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def lint_file(root: str, path: str) -> tuple[list[Finding], list[OrderSite]]:
    relpath = os.path.relpath(path, root)
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    model = SourceModel(relpath, text)
    findings, sites = run_rules(model, relpath, RULES)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings, sites


def write_sarif(out_path: str, findings: list[Finding]):
    """SARIF 2.1.0 for the analysis CI cell / code-scanning consumers."""
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "lfrc_lint",
                "informationUri": "tools/lfrc_lint/README.md",
                "rules": [{"id": r,
                           "shortDescription": {"text": RULE_DOC[r]}}
                          for r in RULES],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": f.path.replace(os.sep, "/")},
                    "region": {"startLine": f.line},
                }}],
            } for f in findings],
        }],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(sarif, fh, indent=2)
        fh.write("\n")


def self_test(root: str) -> int:
    """Fixture corpus: every `lint-expect: Rn` marker in a fixture must be
    matched by a finding of that rule within 2 lines, every finding must be
    claimed by a marker, and *_good fixtures must be perfectly clean. R6
    pairing resolution runs per fixture file, so each fixture is a
    self-contained lint run."""
    fixtures_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fixtures")
    files = collect_files(fixtures_dir, ["."])
    if not files:
        print("lfrc_lint: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    checked = 0
    flagged = 0
    for path in sorted(files):
        relpath = os.path.relpath(path, root)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        model = SourceModel(relpath, text)
        findings, sites = lint_file(root, path)
        findings = sorted(findings + order_pairing_findings(sites),
                          key=lambda f: (f.line, f.rule))
        expected = []  # (line, rule)
        for line, rls in sorted(model.expectations.items()):
            expected.extend((line, r) for r in rls)
        unmatched_exp = list(expected)
        unclaimed = []
        for f in findings:
            hit = None
            for e in unmatched_exp:
                if e[1] == f.rule and abs(e[0] - f.line) <= 2:
                    hit = e
                    break
            if hit is not None:
                unmatched_exp.remove(hit)
            else:
                unclaimed.append(f)
        checked += 1
        flagged += len(expected) - len(unmatched_exp)
        name = os.path.basename(path)
        if unmatched_exp or unclaimed:
            failures += 1
            print(f"FIXTURE FAIL {name}")
            for line, rule in unmatched_exp:
                print(f"  expected {rule} near {relpath}:{line} — not flagged")
            for f in unclaimed:
                print(f"  unexpected: {f.render()}")
        else:
            verdict = "flags" if expected else "clean"
            print(f"fixture ok   {name:40s} "
                  f"({verdict} {len(expected) or ''}".rstrip() + ")")
    print(f"\nself-test: {checked} fixtures, {flagged} seeded violations "
          f"flagged, {failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="lfrc_lint", add_help=True)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/dirs relative to --root (default: src)")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus instead of linting paths")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--sarif", metavar="OUT", default=None,
                    help="also write findings as SARIF 2.1.0 to OUT")
    ap.add_argument("--order-table", metavar="OUT", default=None,
                    help="write the R6 fence-pairing table (markdown) to "
                         "OUT ('-' for stdout)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(f"{r}  {RULE_DOC[r]}")
        return 0

    root = os.path.abspath(args.root)

    if args.self_test:
        print("lfrc_lint self-test")
        return self_test(root)

    paths = args.paths or ["src"]
    files = collect_files(root, paths)
    all_findings: list[Finding] = []
    all_sites: list[OrderSite] = []
    for path in files:
        findings, sites = lint_file(root, path)
        all_findings.extend(findings)
        all_sites.extend(sites)
    all_findings.extend(order_pairing_findings(all_sites))
    for f in all_findings:
        print(f.render())
    if args.sarif:
        write_sarif(args.sarif, all_findings)
    if args.order_table:
        table = order_table(all_sites)
        if args.order_table == "-":
            sys.stdout.write(table)
        else:
            with open(args.order_table, "w", encoding="utf-8") as fh:
                fh.write(table)
    tag = "clean" if not all_findings else f"{len(all_findings)} finding(s)"
    print(f"lfrc_lint: {len(files)} file(s), {tag} "
          f"({len(all_sites)} order-annotated sites)")
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
