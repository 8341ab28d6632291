"""The counting rules of ``tools/code_lines.py``, on small sources."""

import importlib.util
from pathlib import Path
from textwrap import dedent

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def count(source: str) -> int:
    return code_lines.code_lines(dedent(source))


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = '''\
        """Module docstring,
        over two lines."""

        # A comment.
        import os  # a trailing comment


        class Thing:
            """Class docstring."""

            def method(self):
                """Method docstring,

                with a blank line inside.
                """
                # Another comment.
                return os.sep


        async def fetch():
            """Coroutine docstring."""
            return 1
        '''
    # import, class, def, return, async def, return
    assert count(source) == 6


def test_a_string_that_is_not_a_docstring_counts_every_line():
    source = '''\
        def usage():
            text = """first
        second

        fourth"""
            return text
        '''
    # def, the four lines of the string, return
    assert count(source) == 6


def test_a_string_after_the_first_statement_is_not_a_docstring():
    source = '''\
        def f():
            x = 1
            """Not a docstring:
            it is the second statement."""
            return x
        '''
    assert count(source) == 5


def test_a_multi_line_call_counts_every_line():
    source = """\
        total = sum(
            [
                1,
                2,
            ]
        )
        """
    assert count(source) == 6


def test_an_empty_source_counts_nothing():
    assert count("") == 0
    assert count("# only a comment\n\n") == 0
