"""The JSON files a user hands in: one reader and one error type for all.

Every such file (a corpus manifest, a tool report, merge records, a watch
config, a replay file, the watch state) is read by ``read_json``, and every
reason it cannot be used is an ``InputError`` whose message starts with the
file's path.
"""

import json


class InputError(ValueError):
    """An input file that cannot be used. The message is ``<path>: <what>``,
    or with problems ``<path>: <what> has N problem(s):`` and one problem on
    each following line."""

    def __init__(self, path: str, what: str, problems=()):
        self.problems = list(problems)
        if self.problems:
            what = "%s has %d problem(s):\n  %s" % (what, len(self.problems),
                                                   "\n  ".join(self.problems))
        super().__init__("%s: %s" % (path, what))


def read_json(path: str, what: str, kind: type = dict):
    """The JSON document in the UTF-8 file ``path``, which must be a ``kind``
    (``dict`` or ``list``); ``what`` names the document in the message."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(path, exc.strerror or str(exc)) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise InputError(path, str(exc)) from None
    if not isinstance(doc, kind):
        raise InputError(path, "a %s must be a JSON %s, not %s" % (
            what, "object" if kind is dict else "list", type(doc).__name__))
    return doc
