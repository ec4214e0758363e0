"""Lexer tests."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.errors import LexError, SourceLocation
from repro.frontend.lexer import Lexer, tokenize
from repro.frontend.tokens import MULTI_CHAR_OPERATORS, SINGLE_CHAR_OPERATORS, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[0].text == "int"
        assert tokens[1].kind == TokenKind.IDENTIFIER
        assert tokens[1].text == "foo"

    def test_eof_is_last(self):
        tokens = tokenize("x")
        assert tokens[-1].kind == TokenKind.EOF

    def test_empty_source_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_underscore_identifier(self):
        tokens = tokenize("__attribute__ _x x_1")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[1].text == "_x"
        assert tokens[2].text == "x_1"

    def test_whitespace_is_skipped(self):
        assert texts("a\t \n b") == ["a", "b"]


class TestNumbers:
    def test_decimal_integer(self):
        token = tokenize("1234")[0]
        assert token.kind == TokenKind.INT_LITERAL
        assert token.value == 1234

    def test_hex_integer(self):
        token = tokenize("0xFF")[0]
        assert token.kind == TokenKind.INT_LITERAL
        assert token.value == 255

    def test_integer_suffixes_ignored(self):
        token = tokenize("10UL")[0]
        assert token.value == 10

    def test_float_literal(self):
        token = tokenize("3.5")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(3.5)

    def test_float_with_exponent(self):
        token = tokenize("1e3")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(1000.0)

    def test_float_with_f_suffix(self):
        token = tokenize("0.25f")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(0.25)

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.kind == TokenKind.FLOAT_LITERAL
        assert token.value == pytest.approx(0.5)


class TestOperators:
    @pytest.mark.parametrize(
        "source, kind",
        [
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("%", TokenKind.PERCENT),
            ("<<", TokenKind.SHL),
            (">>", TokenKind.SHR),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("&&", TokenKind.LOGICAL_AND),
            ("||", TokenKind.LOGICAL_OR),
            ("+=", TokenKind.PLUS_ASSIGN),
            ("-=", TokenKind.MINUS_ASSIGN),
            ("*=", TokenKind.STAR_ASSIGN),
            ("++", TokenKind.INCREMENT),
            ("--", TokenKind.DECREMENT),
            ("<<=", TokenKind.SHL_ASSIGN),
        ],
    )
    def test_operator_kinds(self, source, kind):
        assert tokenize(source)[0].kind == kind

    def test_maximal_munch(self):
        # '+++' lexes as '++' then '+'.
        tokens = tokenize("a+++b")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENTIFIER,
            TokenKind.INCREMENT,
            TokenKind.PLUS,
            TokenKind.IDENTIFIER,
        ]

    def test_brackets_and_punctuation(self):
        assert kinds("a[i];")[:5] == [
            TokenKind.IDENTIFIER,
            TokenKind.LBRACKET,
            TokenKind.IDENTIFIER,
            TokenKind.RBRACKET,
            TokenKind.SEMICOLON,
        ]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestLiterals:
    def test_char_literal(self):
        token = tokenize("'A'")[0]
        assert token.kind == TokenKind.CHAR_LITERAL
        assert token.value == 65

    def test_char_escape(self):
        token = tokenize(r"'\n'")[0]
        assert token.value == 10

    def test_string_literal(self):
        token = tokenize('"hello"')[0]
        assert token.kind == TokenKind.STRING_LITERAL
        assert token.value == "hello"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_propagates(self):
        tokens = tokenize("x", filename="kernel.c")
        assert tokens[0].location.filename == "kernel.c"


class TestPragmaMarker:
    def test_pragma_marker_round_trip(self):
        from repro.frontend.preprocessor import preprocess

        text, _ = preprocess("#pragma clang loop vectorize_width(4)\nint x;")
        tokens = tokenize(text)
        assert tokens[0].kind == TokenKind.PRAGMA
        assert "vectorize_width(4)" in tokens[0].value


class TestNonAsciiDigits:
    # str.isdigit() is true for these; int() rejects "²" and reads "٣" as 3.
    @pytest.mark.parametrize("source, column", [("x = ²;", 5), ("x = 1٣;", 6), ("1.٣", 3)])
    def test_non_ascii_digit_is_a_located_lex_error(self, source, column):
        with pytest.raises(LexError) as raised:
            tokenize(source, filename="k.c")
        assert "unexpected character" in raised.value.message
        assert raised.value.location == SourceLocation(1, column, "k.c")

    def test_parse_source_reports_it_as_a_frontend_error(self):
        from repro.frontend import parse_source

        for body in ("a[i] = ²;", "a[i] = 1٣;"):
            with pytest.raises(LexError):
                parse_source("float a[8];\nvoid f() { for (int i = 0; i < 8; i++) %s }" % body)

    def test_unterminated_char_literal_at_end_of_input_is_a_lex_error(self):
        for source in ("'", "'\\", "x = '"):
            with pytest.raises(LexError, match="unterminated character literal"):
                tokenize(source)


# ---------------------------------------------------------------------------
# tokenize() (one regex match per token) ≡ the next_token() loop
# ---------------------------------------------------------------------------


def lexed(lex, text):
    """What ``lex(text)`` produces, errors included, as comparable values."""
    try:
        tokens = lex(text)
    except LexError as error:
        return ("LexError", error.message, error.location)
    return [
        (token.kind, token.text, token.value, type(token.value), token.location)
        for token in tokens
    ]


def by_next_token(text):
    lexer = Lexer(text, "k.c")
    tokens = []
    while True:
        tokens.append(lexer.next_token())
        if tokens[-1].kind == TokenKind.EOF:
            return tokens


def assert_scanner_matches(text):
    assert lexed(lambda source: tokenize(source, "k.c"), text) == lexed(by_next_token, text)


def with_rewrites(kernels):
    """Each kernel's raw and preprocessed text, and those of its
    vectorize/interleave- and unroll-pragma rewrites."""
    from repro.core.loop_extractor import extract_loops
    from repro.core.pragma_injector import inject_loop_pragmas, inject_pragmas
    from repro.frontend.pragmas import LoopPragma
    from repro.frontend.preprocessor import preprocess

    for kernel in kernels:
        loops = range(len(extract_loops(kernel.source, function_name=kernel.function_name)))
        for source in (
            kernel.source,
            inject_pragmas(kernel.source, {index: (8, 2) for index in loops}, kernel.function_name),
            inject_loop_pragmas(
                kernel.source,
                {index: LoopPragma(unroll_count=4) for index in loops},
                kernel.function_name,
            ),
        ):
            yield source
            yield preprocess(source)[0]


EDGE_STRINGS = [
    "", " ", "\n", " \t\r\n\f\v ", "\r\n\r\n x\r\n\ty \f\f z\v\n", "a\n\n\n  b\n c",
    ".5", "1..2", "1.e3f", "1.5e+3L", "1e", "1e+", "0x", "0x1Fu", "0X1f", "10UL", "10x", "007",
    "1.", "1.x", "12.5.3", "3e5", "3e-5f", "9u9", ". .. ...", "a.b", "a . 5", "a.5",
    "a->b.c <<= 3", "a+++b", "a---b", "x>>=y>>z>=w>v", "a&&&b|||c", "i<=n!=m==k", "~!?:,;",
    "()[]{}", "int intx _int __attribute__ restrict", "for(int i=0;i<n;i++)a[i]=b[i]*2;",
    "'", "'a", "'a'", "'\\n'", "'\\", '"', '"abc', '"a\\"b"', '"a\\', "x = 'a' + \"s\";",
    "__REPRO_PRAGMA__", "__REPRO_PRAGMA__ x", "__REPRO_PRAGMA__(", '__REPRO_PRAGMA__("',
    '__REPRO_PRAGMA__("clang loop', '__REPRO_PRAGMA__("a")', '__REPRO_PRAGMA__ ( "a" ) ;x',
    '__REPRO_PRAGMA__("a\nb");\n  y', "__REPRO_PRAGMA__x", "x__REPRO_PRAGMA__",
    "é", "a²", "x = ²;", "x = 1٣;", "int é = 1;\n  y", "a $ b", "#define N 4", "a @\n b", "\\",
]


class TestScannerMatchesNextToken:
    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_edge_strings(self, text):
        assert_scanner_matches(text)

    def test_llvm_polybench_and_mibench_kernels_and_their_rewrites(self):
        from repro.datasets.llvm_suite import llvm_vectorizer_suite
        from repro.datasets.mibench import mibench_suite
        from repro.datasets.polybench import polybench_suite

        for suite in (llvm_vectorizer_suite(), polybench_suite(), mibench_suite()):
            for text in with_rewrites(suite):
                assert_scanner_matches(text)

    def test_two_thousand_synthetic_kernels_and_their_rewrites(self):
        from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset

        kernels = generate_synthetic_dataset(SyntheticDatasetConfig(count=2000, seed=5))
        assert len(kernels) == 2000
        for text in with_rewrites(kernels):
            assert_scanner_matches(text)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.sampled_from(
                [text for text, _ in MULTI_CHAR_OPERATORS]
                + list(SINGLE_CHAR_OPERATORS)
                + list("0123456789..''\"\"\\ \t\n\r\f\vaeExXuUlLfF_$#é²٣")
                + ["int", "for", "x1", "0x", "1e", "__REPRO_PRAGMA__", '("', '")', ");"]
            ),
            max_size=40,
        ).map("".join)
    )
    def test_token_soup(self, text):
        assert_scanner_matches(text)
