"""The character-by-character SQL lexer that ``csr.sqlrefs.tokenize_sql``
replaced, kept verbatim as the oracle for the differential test in
``test_sqlrefs.py``. It is not used by the package."""

from __future__ import annotations

from csr.sqlrefs import KEYWORDS, SqlToken, SqlTokenError


def tokenize_sql(sql: str) -> list[SqlToken]:
    """Tokenize SQL into typed tokens with byte offsets; comments stripped.

    String literals use single quotes with ``''`` escaping; identifiers may
    be double-quoted, backtick-quoted, or bracket-quoted. Raises
    SqlTokenError for unterminated literals or block comments.
    """
    tokens: list[SqlToken] = []
    i = 0
    byte_pos = 0
    n = len(sql)

    def advance(count: int) -> None:
        nonlocal i, byte_pos
        byte_pos += len(sql[i : i + count].encode("utf-8"))
        i += count

    while i < n:
        ch = sql[i]
        if ch.isspace():
            advance(1)
            continue
        # Line comment.
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            advance((end - i) if end != -1 else (n - i))
            continue
        # Block comment.
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SqlTokenError("unterminated block comment", byte_pos)
            advance(end + 2 - i)
            continue
        # String literal with '' escaping.
        if ch == "'":
            start_byte = byte_pos
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise SqlTokenError("unterminated string literal", start_byte)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(SqlToken("string", "".join(parts), start_byte))
            advance(j + 1 - i)
            continue
        # Quoted identifiers.
        if ch in '"`[':
            closer = {'"': '"', "`": "`", "[": "]"}[ch]
            start_byte = byte_pos
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise SqlTokenError("unterminated quoted identifier", start_byte)
                if sql[j] == closer:
                    if closer != "]" and j + 1 < n and sql[j + 1] == closer:
                        parts.append(closer)
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(SqlToken("identifier", "".join(parts), start_byte))
            advance(j + 1 - i)
            continue
        # Numbers.
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start_byte = byte_pos
            j = i
            while j < n and (sql[j].isdigit() or sql[j] in ".eE+-"):
                if sql[j] in "+-" and sql[j - 1] not in "eE":
                    break
                j += 1
            tokens.append(SqlToken("number", sql[i:j], start_byte))
            advance(j - i)
            continue
        # Bare identifiers / keywords.
        if ch.isalpha() or ch == "_":
            start_byte = byte_pos
            j = i
            while j < n and (sql[j].isalnum() or sql[j] in "_$#"):
                j += 1
            word = sql[i:j]
            if word.lower() in KEYWORDS:
                tokens.append(SqlToken("keyword", word.upper(), start_byte))
            else:
                tokens.append(SqlToken("identifier", word, start_byte))
            advance(j - i)
            continue
        # Multi-char operators, then single-char punctuation. Unknown
        # characters become punctuation too; the extractor never rejects them.
        start_byte = byte_pos
        two = sql[i : i + 2]
        if two in ("<=", ">=", "<>", "!=", "||", "::"):
            tokens.append(SqlToken("punct", two, start_byte))
            advance(2)
        else:
            tokens.append(SqlToken("punct", ch, start_byte))
            advance(1)
    return tokens
