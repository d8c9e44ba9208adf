"""Reference writers for the differential report tests: a plain table and
CSV written a row at a time from lists of cells, independent of the
column-wise writer in `flexmarket.reports` that they check."""

import io


def table_bytes(headers, rows):
    cells = [list(map(str, row)) for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = io.StringIO()
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    return out.getvalue().encode("utf-8")


def csv_bytes(headers, rows):
    out = io.StringIO()
    out.write(",".join(headers) + "\n")
    for row in rows:
        out.write(",".join(map(str, row)) + "\n")
    return out.getvalue().encode("utf-8")
