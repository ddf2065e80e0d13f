"""C++ lexer: raw text -> comment/string-aware token stream.

The tokenizer is deliberately approximate — it does not expand macros
or evaluate preprocessor conditionals — but it is exact about the
things the old regex linter got wrong: comments, string/char literals
(including raw strings and digit separators) can never produce code
tokens, and every token carries its source line.

Preprocessor directives are removed from the code stream, so a
`#define` body never reaches the rules.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Tok(NamedTuple):
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'p' (punctuation)
    text: str
    line: int


class Comment(NamedTuple):
    line: int       # line the comment starts on
    end_line: int   # line the comment ends on (== line for //)
    text: str


class LexedFile(NamedTuple):
    tokens: list        # list[Tok], code only
    comments: list      # list[Comment]


# One master pattern; alternatives ordered so comments and literals win
# over punctuation. Raw strings before plain strings.
_MASTER = re.compile(
    r"""
      (?P<lcom>//[^\n]*)
    | (?P<bcom>/\*.*?\*/)
    | (?P<raw>R"(?P<rdelim>[^()\s\\]{0,16})\(.*?\)(?P=rdelim)")
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<chr>'(?:[^'\\\n]|\\.)'|'\\x[0-9a-fA-F]+'|'\\[0-7]+')
    | (?P<num>\.?[0-9](?:[0-9a-zA-Z_.']|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<p>::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|[-+*/%^&|~!<>=?:;,.(){}\[\]#\\@$])
    | (?P<ws>\s+)
    | (?P<other>.)
    """,
    re.DOTALL | re.VERBOSE,
)

def lex(text: str) -> LexedFile:
    """Tokenize C++ source, separating code tokens from comments and
    preprocessor directives."""
    raw_lines = text.split("\n")

    tokens: list[Tok] = []
    comments: list[Comment] = []

    line = 1
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "ws" or kind == "other":
            line += s.count("\n")
            continue
        if kind == "lcom":
            comments.append(Comment(line, line, s))
            continue
        if kind == "bcom":
            end = line + s.count("\n")
            comments.append(Comment(line, end, s))
            line = end
            continue
        if kind == "raw":
            tokens.append(Tok("str", s, line))
            line += s.count("\n")
            continue
        if kind in ("str", "chr", "num", "id"):
            tokens.append(Tok(kind, s, line))
            continue
        tokens.append(Tok("p", s, line))

    # Strip preprocessor directives from the code stream. A directive
    # starts at a '#' that is the first token on its line and spans
    # every line whose predecessor ends with a backslash continuation.
    out: list[Tok] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "p" and t.text == "#" and (
                not out or out[-1].line < t.line or
                (i > 0 and tokens[i - 1].line < t.line)):
            start_line = t.line
            end_line = start_line
            while (end_line - 1 < len(raw_lines) and
                   raw_lines[end_line - 1].rstrip().endswith("\\")):
                end_line += 1
            while i < n and tokens[i].line <= end_line:
                i += 1
            continue
        out.append(t)
        i += 1

    return LexedFile(out, comments)
