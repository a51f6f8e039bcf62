"""Tokenizer for the rule DSL.

Keywords are case-insensitive (the paper writes them in upper case);
identifiers are case-sensitive.  Comments run from ``--`` to end of
line, exactly as in the paper's Figure 4 listing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LexError

KEYWORDS = {
    "IF", "THEN", "ON", "END", "CONSTANT", "VARIABLE", "INPUT", "FUNCTION",
    "EVENT", "SUBBASE", "RETURNS", "RETURN", "IN", "TO", "AND", "OR", "NOT",
    "EXISTS", "FORALL", "SET", "OF", "UNION", "INTER", "DIFF", "MOD",
    "INIT", "FCFB",
}

# Multi-character operators first so maximal munch works.
OPERATORS = ["<-", "<=", ">=", "/=", "<", ">", "=", "+", "-", "*",
             "(", ")", "{", "}", ",", ";", ":", "!"]


@dataclass(frozen=True)
class Token:
    kind: str          # 'KW', 'IDENT', 'NUM', 'OP', 'STRING', 'EOF'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind},{self.text!r},@{self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    """Convert DSL source text to a token list ending in an EOF token."""
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def error(msg: str) -> LexError:
        return LexError(msg, line, col)

    while i < n:
        ch = source[i]
        # -- comment to end of line
        if ch == "-" and i + 1 < n and source[i + 1] == "-":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            j = source.find('"', i + 1)
            if j < 0:
                raise error("unterminated string literal")
            text = source[i + 1:j]
            tokens.append(Token("STRING", text, line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("NUM", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word.upper() in KEYWORDS:
                tokens.append(Token("KW", word.upper(), line, col))
            else:
                tokens.append(Token("IDENT", word, line, col))
            col += j - i
            i = j
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise error(f"unexpected character {ch!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens
