"""Matrix CSV text from the standard library alone.  :func:`svls.matio.write_matrix`
formats rows with :func:`rows_text`, and runs this file as ``python -I -S _rowtext.py
FORMAT WIDTH ROWS`` to format part of a large matrix on another CPU: it reads native
float64 rows of WIDTH values from standard input, ROWS at a time, and writes their text
to standard output."""

import sys
from array import array


def row_template(fmt: str, width: int) -> str:
    return ",".join([fmt] * width) + "\n"


def rows_text(template: str, rows) -> str:
    """The text of ``rows``, each a sequence of floats that fills ``template``."""
    return "".join([template % tuple(row) for row in rows])


if __name__ == "__main__":
    fmt, width, rows = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    template = row_template(fmt, width)
    for chunk in iter(lambda: sys.stdin.buffer.read(8 * width * rows), b""):
        values = array("d", chunk)  # a part value or part row raises: exit code 1
        sys.stdout.buffer.write(rows_text(
            template, [values[i : i + width] for i in range(0, len(values), width)]).encode())
