"""Lightweight structural model of a C++ source file for lfrc_lint.

This is the self-contained frontend: no libclang, no compiler —
just enough lexing to answer the structural questions rules R1-R5 ask:

  * comment/string stripping with line numbers preserved, so regexes can
    never match inside literals or prose;
  * `lfrc-lint:` annotation comments (the per-site escape hatches) and
    `lint-expect:` markers (fixture expectations), collected per line;
  * a brace-block tree (every `{...}` with its header text), giving
    enclosing-scope and dominating-branch structure;
  * class records (name, bases, members, methods) for the node-shape rules.

The model is deliberately conservative: it does not macro-expand and does
not resolve templates. What that costs in completeness is documented in
DESIGN.md §11 — template-dependent facts are covered by the compile-time
trait (smr::detail::children_cover_all_links_v) instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


ANNOTATION_RE = re.compile(r"lfrc-lint:\s*([a-zA-Z0-9\-(), ]+)")
EXPECT_RE = re.compile(r"lint-expect:\s*(R[1-7](?:\s*,\s*R[1-7])*)")


def strip_source(text: str):
    """Blank out comments, string and char literals (newlines preserved).

    Returns (stripped_text, annotations, expectations) where annotations
    maps line -> set of `lfrc-lint:` words and expectations maps
    line -> list of rule names from `lint-expect:` markers.
    """
    out = []
    annotations: dict[int, set[str]] = {}
    expectations: dict[int, list[str]] = {}
    i, n = 0, len(text)
    line = 1

    def note_comment(comment: str, at_line: int):
        m = ANNOTATION_RE.search(comment)
        if m:
            words = {w.strip() for w in m.group(1).split(",") if w.strip()}
            annotations.setdefault(at_line, set()).update(words)
        m = EXPECT_RE.search(comment)
        if m:
            rules = [r.strip() for r in m.group(1).split(",")]
            expectations.setdefault(at_line, []).extend(rules)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            note_comment(text[i:j], line)
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            note_comment(chunk, line)
            for ch in chunk:
                out.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = j
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                if text[i] == "\n":
                    line += 1
                i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), annotations, expectations


@dataclass
class Block:
    """One `{...}` region. header = text between the previous statement
    boundary and the opening brace (the if-condition, function signature,
    class-head, ...). Offsets index into the stripped text; the opening
    brace is at `open_off`, the matching close at `close_off`."""

    open_off: int
    close_off: int = -1
    header: str = ""
    parent: "Block | None" = None
    children: list["Block"] = field(default_factory=list)

    def ancestors(self):
        b = self.parent
        while b is not None:
            yield b
            b = b.parent


@dataclass
class Member:
    type_text: str
    name: str
    line: int


@dataclass
class ClassInfo:
    name: str
    bases: str
    block: Block
    line: int
    members: list[Member] = field(default_factory=list)
    methods: dict[str, Block] = field(default_factory=dict)


CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "else", "do", "try", "catch",
    "namespace", "struct", "class", "union", "enum", "return",
}

CLASS_HEAD_RE = re.compile(
    r"\b(?:struct|class)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::\s*(.*))?$",
    re.S,
)
# Characters a function header may contain between its closing paren and the
# body brace: cv/ref/noexcept/override keywords, trailing return types,
# member-init lists. A plain charset test — regex backtracking on arbitrary
# header text is how linters hang.
FUNC_TAIL_CHARS = set(
    " \t\n"  # whitespace
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
    "-><:,*&~()"
)

MEMBER_DECL_RE = re.compile(
    r"^(?P<type>[\w:<>,\s*&\[\]]+?[\s*&>])(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:\{[^{}]*\}|=[^;]*)?$"
)


class SourceModel:
    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.stripped, self.annotations, self.expectations = strip_source(text)
        # line_of[i] = 1-based line of offset i
        self._line_starts = [0]
        for m in re.finditer(r"\n", self.stripped):
            self._line_starts.append(m.end())
        self.root = self._parse_blocks()
        self.classes = self._parse_classes()

    # ---- positions -------------------------------------------------------

    def line_of(self, off: int) -> int:
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def annotated(self, line: int, word: str) -> bool:
        """An annotation applies to its own line or the line below it."""
        for at in (line, line - 1):
            if word in self.annotations.get(at, set()):
                return True
        return False

    def exempt(self, line: int, rule: str) -> bool:
        for at in (line, line - 1):
            for word in self.annotations.get(at, set()):
                if word.startswith("exempt(") and rule in word:
                    return True
        return False

    # ---- block tree ------------------------------------------------------

    def _parse_blocks(self) -> Block:
        root = Block(open_off=-1, header="<file>")
        root.close_off = len(self.stripped)
        cur = root
        header_start = 0
        s = self.stripped
        for i, c in enumerate(s):
            if c == "{":
                header = s[header_start:i].strip()
                blk = Block(open_off=i, header=header, parent=cur)
                cur.children.append(blk)
                cur = blk
                header_start = i + 1
            elif c == "}":
                cur.close_off = i
                if cur.parent is not None:
                    cur = cur.parent
                header_start = i + 1
            elif c == ";":
                header_start = i + 1
        return root

    def enclosing_block(self, off: int) -> Block:
        blk = self.root
        descended = True
        while descended:
            descended = False
            for ch in blk.children:
                if ch.open_off < off < (ch.close_off if ch.close_off >= 0 else len(self.stripped)):
                    blk = ch
                    descended = True
                    break
        return blk

    def block_text(self, blk: Block, upto: int | None = None) -> str:
        end = blk.close_off if upto is None else min(upto, blk.close_off)
        return self.stripped[blk.open_off + 1:end]

    def own_text(self, blk: Block) -> str:
        """Block text with child-block bodies blanked (headers and the brace
        pairs kept — the braces double as statement boundaries)."""
        parts = []
        pos = blk.open_off + 1
        for ch in blk.children:
            parts.append(self.stripped[pos:ch.open_off + 1])
            parts.append(re.sub(r"[^\n]", " ", self.stripped[ch.open_off + 1:ch.close_off]))
            pos = ch.close_off
        parts.append(self.stripped[pos:blk.close_off])
        return "".join(parts)

    def is_function_block(self, blk: Block) -> bool:
        h = blk.header.strip()
        if not h or "(" not in h:
            return False
        first = re.match(r"[A-Za-z_]\w*", h)
        if first and first.group(0) in CONTROL_KEYWORDS:
            return False
        if CLASS_HEAD_RE.search(h):
            return False
        if h.endswith("]"):
            return True  # lambda introducer directly before the body
        rp = h.rfind(")")
        if rp == -1:
            return False
        return all(c in FUNC_TAIL_CHARS for c in h[rp + 1:])

    def enclosing_function(self, off: int) -> Block | None:
        blk = self.enclosing_block(off)
        while blk is not None and blk.header != "<file>":
            if self.is_function_block(blk):
                return blk
            blk = blk.parent
        return None

    # ---- classes ---------------------------------------------------------

    def _parse_classes(self) -> list[ClassInfo]:
        classes: list[ClassInfo] = []

        def visit(blk: Block):
            for ch in blk.children:
                m = CLASS_HEAD_RE.search(ch.header)
                if m:
                    ci = ClassInfo(
                        name=m.group(1),
                        bases=(m.group(2) or "").strip(),
                        block=ch,
                        line=self.line_of(ch.open_off),
                    )
                    self._fill_class(ci)
                    classes.append(ci)
                visit(ch)

        visit(self.root)
        return classes

    def _fill_class(self, ci: ClassInfo):
        blk = ci.block
        # Methods: direct child blocks whose headers look like functions.
        for ch in blk.children:
            if self.is_function_block(ch):
                name_m = re.search(r"([~A-Za-z_]\w*)\s*\(", ch.header)
                if name_m:
                    ci.methods[name_m.group(1)] = ch
        # Members: statements in the class's own text (child bodies blanked).
        # Braces are statement boundaries too, so a brace-bodied ctor/method
        # never bleeds into the declaration that follows it.
        own = self.own_text(blk)
        base_off = blk.open_off + 1
        for stmt_m in re.finditer(r"[^;{}]*[;{}]", own, re.S):
            stmt = stmt_m.group(0)[:-1]
            boundary = stmt_m.group(0)[-1]
            if boundary == "}" or (boundary == "{" and
                                   CLASS_HEAD_RE.search(stmt)):
                continue  # close brace / nested type — not a declaration
            # boundary '{' with no class-head: a braced-initializer member
            # (`V value{};`) — parse its declarator like any other.
            stmt_off = base_off + stmt_m.start()
            decl = stmt.strip()
            if not decl or "(" in decl or ")" in decl:
                continue  # method decls / using / typedef-with-parens
            for kw in ("using ", "typedef ", "friend ", "static_assert",
                       "public", "private", "protected", "template"):
                if decl.startswith(kw):
                    decl = ""
                    break
            if not decl:
                continue
            decl = re.sub(r"\s+", " ", decl)
            m = MEMBER_DECL_RE.match(decl)
            if m:
                ci.members.append(Member(
                    type_text=m.group("type").strip(),
                    name=m.group("name"),
                    line=self.line_of(stmt_off),
                ))
