"""File-or-stream destinations shared by every reader and writer."""

from contextlib import nullcontext


def open_dest(dest, mode: str = "w"):
    """Context manager yielding a stream for dest.

    A path (str, bytes or os.PathLike) is opened in mode and closed on exit;
    text modes use UTF-8 with untranslated newlines, so written files are
    byte-identical across platforms.  Anything else is taken as an open
    stream and yielded unchanged, left open for its owner.
    """
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        if "b" in mode:
            return open(dest, mode)
        return open(dest, mode, encoding="utf-8", newline="")
    return nullcontext(dest)
