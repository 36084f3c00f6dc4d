#!/usr/bin/env python3
"""Determinism lint: static scan enforcing the repo's reproducibility contract.

The library promises bit-identical chains for a fixed seed under
kernel=reference, and statistically-equivalent chains under kernel=fused.
That promise dies quietly if a hot path picks up ad-hoc randomness,
wall-clock input, or iteration order from an unordered container. This
lint bans the paths by which that happens:

  R1 banned-random     rand()/srand()/std::random_device/std::mt19937 and
                       friends anywhere outside src/common/rng.* — all
                       randomness must flow through the seeded ltm::Rng.
  R2 wall-clock        wall-clock reads (std::chrono::system_clock, time(),
                       gettimeofday, clock(), localtime, gmtime) inside
                       src/truth/, src/store/, and src/serve/ — sampler,
                       store, and serving logic must be a function of
                       inputs, not of the clock. steady_clock is allowed:
                       it is monotonic, used only for deadlines/timing,
                       and never feeds results.
  R3 unordered-iter    range-for over a std::unordered_{map,set} declared in
                       the same file, feeding `+=` accumulation within the
                       loop body, in the same directories — hash-order
                       iteration makes float accumulation order (and thus
                       low bits) vary across libstdc++ versions.
  R4 golden-kernel-pin a golden bit-pin test (file mentioning "golden" with
                       EXPECT_DOUBLE_EQ assertions) must pin the kernel
                       explicitly (LtmKernel::kReference or kernel=reference)
                       so a future default-kernel change cannot silently
                       re-gold the expected values.

False positives are suppressed via tools/determinism_allowlist.txt:
one `<rule-id> <path-substring>` pair per line, '#' comments.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

import argparse
import re
import sys
from pathlib import Path

RULE_BANNED_RANDOM = "banned-random"
RULE_WALL_CLOCK = "wall-clock"
RULE_UNORDERED_ITER = "unordered-iter"
RULE_GOLDEN_PIN = "golden-kernel-pin"

RANDOM_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"std::(mt19937|minstd_rand|ranlux\d+|knuth_b)\b"),
     "std <random> engine"),
    (re.compile(r"std::(uniform_(int|real)_distribution|normal_distribution|"
                r"bernoulli_distribution)\b"), "std <random> distribution"),
]

CLOCK_PATTERNS = [
    (re.compile(r"system_clock"), "std::chrono::system_clock"),
    (re.compile(r"(?<![\w:])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"(?<![\w:._>])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w:])(localtime|gmtime)\s*\("), "localtime/gmtime"),
]

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*?>\s+(\w+)")
RANGE_FOR = re.compile(r"for\s*\([^;)]*:\s*(\w+)\s*\)")
ACCUMULATION = re.compile(r"[^\s=!<>+*/-]\s*\+=")
# How many lines of loop body R3 scans for accumulation.
R3_BODY_WINDOW = 12

GOLDEN_HINT = re.compile(r"golden", re.IGNORECASE)
DOUBLE_PIN = re.compile(r"EXPECT_DOUBLE_EQ")
KERNEL_PIN = re.compile(r"LtmKernel::kReference|kernel\s*=\s*reference")


def strip_comments(line):
    """Drops // comments (good enough: the repo has no /* */ in code lines)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def load_allowlist(path):
    entries = []
    if path.is_file():
        for raw in path.read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                print(f"lint_determinism: bad allowlist line: {raw!r}",
                      file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1]))
    return entries


def allowed(entries, rule, relpath):
    return any(r == rule and frag in relpath for r, frag in entries)


def scan_patterns(relpath, lines, patterns, rule, findings, allow):
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments(raw)
        for pattern, what in patterns:
            if pattern.search(code) and not allowed(allow, rule, relpath):
                findings.append((rule, relpath, lineno, what))


def scan_unordered_iteration(relpath, lines, findings, allow):
    stripped = [strip_comments(l) for l in lines]
    names = set()
    for code in stripped:
        m = UNORDERED_DECL.search(code)
        if m:
            names.add(m.group(1))
    if not names:
        return
    for i, code in enumerate(stripped):
        m = RANGE_FOR.search(code)
        if not m or m.group(1) not in names:
            continue
        body = stripped[i:i + R3_BODY_WINDOW]
        if any(ACCUMULATION.search(b) for b in body):
            if not allowed(allow, RULE_UNORDERED_ITER, relpath):
                findings.append(
                    (RULE_UNORDERED_ITER, relpath, i + 1,
                     f"range-for over unordered container '{m.group(1)}' "
                     "feeds accumulation"))


def scan_golden_pin(relpath, text, findings, allow):
    if not (GOLDEN_HINT.search(text) and DOUBLE_PIN.search(text)):
        return
    if KERNEL_PIN.search(text):
        return
    if not allowed(allow, RULE_GOLDEN_PIN, relpath):
        findings.append(
            (RULE_GOLDEN_PIN, relpath, 1,
             "golden bit-pin test without an explicit kernel pin "
             "(LtmKernel::kReference or kernel=reference)"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"lint_determinism: no src/ under {root}", file=sys.stderr)
        return 2

    allow = load_allowlist(root / "tools" / "determinism_allowlist.txt")
    findings = []

    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(errors="replace")
        lines = text.splitlines()
        if not relpath.startswith("src/common/rng"):
            scan_patterns(relpath, lines, RANDOM_PATTERNS,
                          RULE_BANNED_RANDOM, findings, allow)
        if relpath.startswith(("src/truth/", "src/store/", "src/serve/",
                               "src/obs/")):
            scan_patterns(relpath, lines, CLOCK_PATTERNS,
                          RULE_WALL_CLOCK, findings, allow)
            scan_unordered_iteration(relpath, lines, findings, allow)

    for path in sorted((root / "tests").rglob("*.cc")):
        relpath = path.relative_to(root).as_posix()
        text = path.read_text(errors="replace")
        scan_patterns(relpath, text.splitlines(), RANDOM_PATTERNS,
                      RULE_BANNED_RANDOM, findings, allow)
        scan_golden_pin(relpath, text, findings, allow)

    if findings:
        for rule, relpath, lineno, what in findings:
            print(f"{relpath}:{lineno}: [{rule}] {what}")
        print(f"lint_determinism: {len(findings)} finding(s). "
              "Fix them or add '<rule> <path>' to "
              "tools/determinism_allowlist.txt with a comment saying why.",
              file=sys.stderr)
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
