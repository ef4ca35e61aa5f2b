"""The statement finder of tests/uncovered.py, the opt-in line-coverage runner."""

from uncovered import statements


def test_statements_are_found():
    source = (
        '"""A docstring."""\n'
        "import os\n"
        "def f(x):\n"
        '    """A docstring."""\n'
        "    global G\n"
        "    if (x and\n"
        "            os.sep):\n"
        "        return [\n"
        "            x,\n"
        "        ]\n"
        "    return None\n"
        "class C:\n"
        "    y = 1\n"
    )
    # The if's own lines are its test; the return's are its whole list.
    assert statements(source) == [(2, 2), (6, 7), (8, 10), (11, 11), (13, 13)]
