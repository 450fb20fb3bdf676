#!/usr/bin/env python3
"""Markdown link checker for this repo's docs.

Validates every inline markdown link/image in the given files:
  - relative file links must point at an existing file or directory
    (resolved against the linking file's directory);
  - `#fragment` anchors (same-file or on a .md target) must match a
    heading in the target, using GitHub's anchor slugification;
  - http(s)/mailto links are skipped (no network in CI).

It also validates repo-path references written in backticks (the
dominant cross-link style in these docs): a `...` token is checked when
it starts with a known top-level directory (`src/`, `docs/`, `tests/`,
`bench/`, `examples/`, `tools/`, `.github/`) or names a root-level
`.md` file — those must exist relative to the repo root. `.json` names
are skipped, since they usually refer to generated artifacts.

In a table with a "Key files" column (ARCHITECTURE.md's layer map), each
bare name in that column must exist under one of the directories named
in the row's first cell (`src/analysis/`, ...), so `engine.hpp` in the
`src/core/` row and `../core/static_ctps.hpp` in the `src/select/` row
are both checked. Bare names elsewhere are prose, not pointers.

A backticked `Type::member` name (`OomEngine::run`,
`sim::Device::record_round`, `TransferError::paged()`; leading
namespaces declared under src/ are dropped, `std::` names are skipped)
must name a class, struct, union, enum or alias defined under `src/`,
and `member` must appear in a file that defines it or in that file's
`.hpp`/`.cpp` sibling, so a deleted type or member cannot stay cited.

With `--sources DIR...` it instead scans every file under the given
directories (code comments, printed banners) for `*.md` names; each
must name a file at the repo root or under `docs/`.

Usage: tools/check_md_links.py README.md docs/*.md
       tools/check_md_links.py --sources src bench examples tests
Exits 1 listing every broken link, 0 when all resolve.
"""
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED_PREFIXES = ("src/", "docs/", "tests/", "bench/", "examples/",
                    "tools/", ".github/")
BACKTICK_RE = re.compile(r"`([^`\s]+)`")
ROOT_FILE_RE = re.compile(r"^[A-Za-z0-9_.-]+\.md$")
SOURCE_MD_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")

# Inline links/images: [text](target) — tolerates one level of nested
# brackets in the text, strips optional '"title"' suffixes in the target.
LINK_RE = re.compile(r"!?\[(?:[^\[\]]|\[[^\]]*\])*\]\(([^()\s]+(?:\([^)]*\))?)\)")
HEADING_RE = re.compile(r"^\s{0,3}(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^\s*(```|~~~)")
# `A::B::member...`: the qualifier chain, then the member's identifier
# (anything after it, such as a call's arguments, is ignored).
CODE_NAME_RE = re.compile(r"^((?:\w+::)+)(\w+)")
TYPE_DEF_RE = re.compile(
    r"\b(?:class|struct|union|enum(?:\s+class)?)\s+(\w+)\b(?!\s*;)"
    r"|\busing\s+(\w+)\s*=")
NAMESPACE_RE = re.compile(r"^\s*namespace\s+(\w+(?:::\w+)*)\s*\{", re.M)


def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug: strip markup-ish punctuation,
    lowercase, spaces to hyphens."""
    text = re.sub(r"[`*_]", "", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headings_of(path: Path) -> set[str]:
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_anchor(match.group(2)))
    return anchors


def links_of(path: Path):
    in_fence = False
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1).split('"')[0].strip()
            if target:
                yield number, target


def backticks_of(path: Path):
    """(line, token) for every backticked token outside code fences."""
    in_fence = False
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in BACKTICK_RE.finditer(line):
            yield number, match.group(1)


def repo_paths_of(path: Path):
    """Backtick tokens that claim to be repo paths (see module doc)."""
    for number, token in backticks_of(path):
        if token.startswith(CHECKED_PREFIXES) or ROOT_FILE_RE.match(token):
            yield number, token


def key_files_of(path: Path):
    """(line, name, row directories) for every bare name in the "Key
    files" column of a table (see module doc)."""
    column = None
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.lstrip().startswith("|"):
            column = None  # a table ends at its first non-row line
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if column is None:
            lowered = [cell.lower() for cell in cells]
            if "key files" in lowered:
                column = lowered.index("key files")
            continue
        if column >= len(cells) or set(cells[0]) <= set("-: "):
            continue  # the header's separator row
        dirs = [token for token in BACKTICK_RE.findall(cells[0])
                if token.endswith("/")]
        for token in BACKTICK_RE.findall(cells[column]):
            if not token.startswith(CHECKED_PREFIXES):
                yield number, token, dirs


class SourceIndex:
    """The types and namespaces src/ defines, and each file's text."""

    def __init__(self, root: Path):
        self.type_files: dict[str, set[Path]] = {}
        self.namespaces: set[str] = set()
        self.text: dict[Path, str] = {}
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            self.text[path] = text
            for match in TYPE_DEF_RE.finditer(text):
                name = match.group(1) or match.group(2)
                self.type_files.setdefault(name, set()).add(path)
            for match in NAMESPACE_RE.finditer(text):
                self.namespaces.update(match.group(1).split("::"))

    def stale(self, token: str) -> str | None:
        """Why `token` names nothing under src/, or None when it does."""
        match = CODE_NAME_RE.match(token)
        scopes = match.group(1).split("::")[:-1]
        member = match.group(2)
        if scopes[0] == "std":
            return None
        while scopes and scopes[0] in self.namespaces:
            scopes.pop(0)
        if not scopes:
            return None  # a namespace-qualified free name
        owner = scopes[-1]
        files = self.type_files.get(owner)
        if not files:
            return f"no type {owner} is defined under src/"
        word = re.compile(rf"\b{member}\b")
        for path in files:
            for sibling in (path.with_suffix(".hpp"), path.with_suffix(".cpp")):
                if word.search(self.text.get(sibling, "")):
                    return None
        where = ", ".join(str(path.relative_to(REPO_ROOT))
                          for path in sorted(files))
        return f"no member {member} in {where}"


def check_sources(dirs: list[str]) -> list[str]:
    """`*.md` names cited anywhere under `dirs` that name no file at the
    repo root or under docs/."""
    errors: list[str] = []
    for directory in dirs:
        if not Path(directory).is_dir():
            errors.append(f"{directory}: directory not found")
            continue
        for path in sorted(Path(directory).rglob("*")):
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), start=1):
                for match in SOURCE_MD_RE.finditer(line):
                    name = match.group(1)
                    if not any((base / name).is_file()
                               for base in (REPO_ROOT, REPO_ROOT / "docs")):
                        errors.append(f"{path}:{number}: cites '{name}', "
                                      "which is not at the repo root or "
                                      "under docs/")
    return errors


def check_markdown(names: list[str]) -> list[str]:
    errors: list[str] = []
    index = SourceIndex(REPO_ROOT / "src")
    for name in names:
        source = Path(name)
        if not source.exists():
            errors.append(f"{name}: file not found")
            continue
        for line, target in links_of(source):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (source.parent / path_part).resolve() if path_part \
                else source.resolve()
            if not resolved.exists():
                errors.append(f"{name}:{line}: broken link '{target}' "
                              f"({resolved} does not exist)")
                continue
            if fragment:
                if resolved.is_dir() or resolved.suffix.lower() != ".md":
                    continue  # anchors into non-markdown: not checkable
                if fragment.lower() not in headings_of(resolved):
                    errors.append(f"{name}:{line}: broken anchor "
                                  f"'{target}' (no heading "
                                  f"'#{fragment}' in {resolved.name})")
        for line, token in repo_paths_of(source):
            # Strip trailing wildcard-ish suffixes ("src/foo/*", "src/").
            candidate = token.rstrip("*")
            if not (REPO_ROOT / candidate).exists():
                errors.append(f"{name}:{line}: stale repo path "
                              f"`{token}` (no such file in the repo)")
        for line, token, dirs in key_files_of(source):
            if not any((REPO_ROOT / d / token).exists() for d in dirs):
                where = ", ".join(dirs) or "no row directory"
                errors.append(f"{name}:{line}: stale key file `{token}` "
                              f"(not under {where})")
        for line, token in backticks_of(source):
            why = index.stale(token) if CODE_NAME_RE.match(token) else None
            if why is not None:
                errors.append(f"{name}:{line}: stale code name `{token}` "
                              f"({why})")
    return errors


def main(argv: list[str]) -> int:
    sources = argv[1:2] == ["--sources"]
    targets = argv[2:] if sources else argv[1:]
    if not targets:
        print(__doc__)
        return 2
    errors = check_sources(targets) if sources else check_markdown(targets)
    if errors:
        print(f"{len(errors)} broken link(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"All markdown links resolve ({len(targets)} path(s) checked).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
