"""Corpus ingestion and serialization (CSV and JSON-lines variants)."""

from __future__ import annotations

import csv
import json
from datetime import datetime, timedelta, timezone
from json.encoder import encode_basestring_ascii as json_string
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ..manifest import write_csv
from .model import (
    Account,
    LabeledDataset,
    NeighborSummary,
    RelationshipGraph,
    Tweet,
    count_entities,
    utc,
)
from .errors import DanglingReferenceError, DuplicateIdError, EmptyCorpusError, MalformedRowError

USER_COLUMNS = [
    "id",
    "screen_name",
    "name",
    "created_at",
    "followers_count",
    "friends_count",
    "statuses_count",
    "listed_count",
    "favourites_count",
    "url",
    "location",
    "description",
    "default_profile_image",
    "profile_image_hash",
    "label",
]

TWEET_COLUMNS = [
    "id",
    "user_id",
    "created_at",
    "text",
    "source",
    "is_retweet",
    "retweet_count",
    "geo",
    "num_hashtags",
    "num_mentions",
    "num_urls",
]
ENTITY_COLUMNS = TWEET_COLUMNS[-3:]

EDGE_COLUMNS = ["follower_id", "followed_id"]
NEIGHBOR_COLUMNS = ["id", "followers_count", "statuses_count"]


def parse_timestamp(raw: str) -> datetime:
    """An ISO-8601 instant; a year below 1000 may be unpadded (`format_timestamp`)."""
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        return utc(datetime.fromisoformat(text))
    except ValueError:
        year, dash, rest = text.partition("-")
        if not (dash and len(year) < 4 and year.isascii() and year.isdigit()):
            raise
        return utc(datetime.fromisoformat(year.zfill(4) + dash + rest))


def format_timestamp(dt: datetime) -> str:
    """``dt`` in UTC as ``strftime("%Y-%m-%dT%H:%M:%SZ")`` writes it with
    glibc (the year not zero-padded), formatted field by field, which
    takes less than half the time."""
    if dt.tzinfo is not timezone.utc:
        dt = utc(dt)
    return "%d-%02d-%02dT%02d:%02d:%02dZ" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true"):
        return True
    if value in ("0", "false", ""):
        return False
    raise ValueError(f"not a 0/1 flag: {raw!r}")


def _optional(raw: Optional[str]) -> Optional[str]:
    if raw is None:
        return None
    return raw if raw.strip() else None


def _rows(
    path: Path, columns: list[str], required: list[str]
) -> Iterator[tuple[int, Sequence[Optional[str]]]]:
    """Yields ``(line, cells)`` for each row of a CSV or JSON-lines file.

    ``cells`` holds one cell per entry of ``columns``, in that order: a
    string, or None where the row lacks the cell (a short CSV row, a column
    the header does not name, a field the JSON object does not have).
    """
    if path.suffix == ".csv":  # else .json or .jsonl, the only others `_resolve_paths` finds
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise MalformedRowError(str(path), 1, missing[0], "missing required column")
            width = len(header)
            position = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
            # a column the header lacks reads the None cell put after the header's cells
            absent = any(c not in position for c in columns)
            cells = itemgetter(*(position.get(c, width) for c in columns))
            padding = [None] * (width + 1)
            for row in reader:
                if not row:
                    continue
                if absent or len(row) != width:  # cells past the header are ignored
                    row = (row[:width] + padding)[: width + 1]
                yield reader.line_num, cells(row)
    else:
        with open(path, encoding="utf-8") as fh:
            for line_num, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRowError(
                        str(path), line_num, "-", f"invalid JSON: {exc.msg}"
                    ) from exc
                if not isinstance(row, dict):
                    raise MalformedRowError(
                        str(path), line_num, "-", "expected one object per line"
                    )
                missing = [c for c in required if c not in row]
                if missing:
                    raise MalformedRowError(
                        str(path), line_num, missing[0], "missing required field"
                    )
                yield line_num, [_json_cell(row[c]) if c in row else None for c in columns]


def _json_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _field(path: Path, line: int, column: str, raw: Optional[str], parser, default=None):
    """``parser(raw)``; a blank cell gives ``default``, or is an error when
    there is none."""
    if raw is None or not raw.strip():
        if default is not None:
            return default
        raise MalformedRowError(str(path), line, column, "empty value")
    try:
        return parser(raw)
    except (ValueError, TypeError) as exc:
        raise MalformedRowError(str(path), line, column, str(exc)) from exc


def _id_field(path: Path, line: int, column: str, raw: Optional[str]) -> str:
    """A required identifier, stripped; a missing or blank cell is an error."""
    value = raw.strip() if raw else ""
    if not value:
        raise MalformedRowError(str(path), line, column, "empty value")
    return value


def _int_field(path: Path, line: int, column: str, raw: Optional[str], default=None) -> int:
    try:
        return int(raw)  # the common case; int() ignores the whitespace strip() would remove
    except (ValueError, TypeError):
        return _field(path, line, column, raw, _parse_int, default)


_FLAGS = {"0": False, "1": True}


def _bool_field(path: Path, line: int, column: str, raw: Optional[str]) -> bool:
    value = _FLAGS.get(raw)
    if value is None:
        return _field(path, line, column, raw, _parse_bool, False)
    return value


def _resolve_paths(source, fmt: str) -> list[Optional[Path]]:
    """The users, tweets, edges and neighbors files under ``source``."""
    extensions = ("csv", "json", "jsonl") if fmt == "csv" else ("json", "jsonl", "csv")
    base = Path(source)
    return [next(filter(Path.exists, (base / f"{key}.{ext}" for ext in extensions)), None)
            for key in ("users", "tweets", "edges", "neighbors")]


def load_dataset(
    source,
    fmt: str = "csv",
    reference_time: Optional[datetime] = None,
    provenance: str = "",
) -> LabeledDataset:
    """Load and integrity-check a corpus from ``source``.

    ``source`` is a directory holding users/tweets/edges(.csv|.json|.jsonl)
    files (neighbors optional).
    Each file is parsed by its extension; ``fmt`` picks the extension looked
    for first.
    When ``reference_time`` is not given it defaults to the newest timestamp
    in the corpus plus one day.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    users_path, tweets_path, edges_path, neighbors_path = _resolve_paths(source, fmt)
    if users_path is None:
        raise EmptyCorpusError(f"no users file found under {source}")

    accounts: dict[str, Account] = {}
    for line, (
        uid, screen_name, name, created_at, followers, friends, statuses, listed, favourites,
        url, location, description, default_image, fingerprint, label,
    ) in _rows(users_path, USER_COLUMNS, ["id", "screen_name", "created_at"]):
        uid = _id_field(users_path, line, "id", uid)
        if uid in accounts:
            raise DuplicateIdError(f"{users_path}: duplicate user_id {uid!r}")
        label = _optional(label)
        if label is not None and label not in ("human", "fake"):
            raise MalformedRowError(str(users_path), line, "label", f"unknown label {label!r}")
        accounts[uid] = Account(
            user_id=uid,
            screen_name=_id_field(users_path, line, "screen_name", screen_name),
            name=name or "",
            created_at=_field(users_path, line, "created_at", created_at, parse_timestamp),
            followers_count=_int_field(users_path, line, "followers_count", followers, 0),
            friends_count=_int_field(users_path, line, "friends_count", friends, 0),
            statuses_count=_int_field(users_path, line, "statuses_count", statuses, 0),
            listed_count=_int_field(users_path, line, "listed_count", listed, 0),
            favourites_count=_int_field(users_path, line, "favourites_count", favourites, 0),
            url=_optional(url),
            location=_optional(location),
            description=_optional(description),
            default_profile_image=_bool_field(
                users_path, line, "default_profile_image", default_image
            ),
            profile_image_fingerprint=_optional(fingerprint),
            label=label,
        )
    if not accounts:
        raise EmptyCorpusError(f"{users_path}: no accounts")

    tweets: dict[str, list[Tweet]] = {uid: [] for uid in accounts}
    if tweets_path is not None:
        seen_tweets: set[str] = set()
        dangling: list[str] = []
        for line, (
            tid, uid, created_at, text, source, retweet, retweets, geo, *entity_cells
        ) in _rows(tweets_path, TWEET_COLUMNS, ["id", "user_id", "created_at"]):
            tid = _id_field(tweets_path, line, "id", tid)
            if tid in seen_tweets:
                raise DuplicateIdError(f"{tweets_path}: duplicate tweet id {tid!r}")
            seen_tweets.add(tid)
            uid = _id_field(tweets_path, line, "user_id", uid)
            if uid not in accounts:
                dangling.append(tid)
                continue
            text = text or ""
            try:
                entities = list(map(int, entity_cells))
            except (ValueError, TypeError):
                entities = _entity_counts(tweets_path, line, text, entity_cells)
            tweets[uid].append(
                Tweet(
                    tweet_id=tid,
                    user_id=uid,
                    created_at=_field(tweets_path, line, "created_at", created_at, parse_timestamp),
                    text=text,
                    source=source or "",
                    is_retweet=_bool_field(tweets_path, line, "is_retweet", retweet),
                    retweet_count=_int_field(tweets_path, line, "retweet_count", retweets, 0),
                    is_geolocalized=_bool_field(tweets_path, line, "geo", geo),
                    num_hashtags=entities[0],
                    num_mentions=entities[1],
                    num_urls=entities[2],
                )
            )
        if dangling:
            raise DanglingReferenceError(
                f"{tweets_path}: tweets reference unknown accounts (tweet ids "
                f"{', '.join(dangling[:10])})"
            )

    neighbor_summaries: dict[str, NeighborSummary] = {}
    if neighbors_path is not None:
        for line, (nid, followers, statuses) in _rows(
            neighbors_path, NEIGHBOR_COLUMNS, NEIGHBOR_COLUMNS
        ):
            nid = _id_field(neighbors_path, line, "id", nid)
            if nid in neighbor_summaries:
                raise DuplicateIdError(f"{neighbors_path}: duplicate neighbor id {nid!r}")
            neighbor_summaries[nid] = NeighborSummary(
                followers_count=_int_field(neighbors_path, line, "followers_count", followers),
                statuses_count=_int_field(neighbors_path, line, "statuses_count", statuses),
            )

    edges: dict[tuple[str, str], None] = {}  # insertion-ordered, so also the duplicate check
    if edges_path is not None:
        for line, (src, dst) in _rows(edges_path, EDGE_COLUMNS, EDGE_COLUMNS):
            edge = (
                _id_field(edges_path, line, "follower_id", src),
                _id_field(edges_path, line, "followed_id", dst),
            )
            if edge[0] == edge[1]:
                raise MalformedRowError(str(edges_path), line, "followed_id", "self-loop")
            if edge in edges:
                raise MalformedRowError(str(edges_path), line, "followed_id", "duplicate edge")
            edges[edge] = None

    graph = RelationshipGraph(edges, neighbor_summaries)
    if reference_time is None:
        newest = max(
            [a.created_at for a in accounts.values()]
            + [t.created_at for rows in tweets.values() for t in rows]
        )
        reference_time = newest + timedelta(days=1)
    dataset = LabeledDataset(
        accounts=accounts,
        tweets={uid: tuple(rows) for uid, rows in tweets.items()},
        graph=graph,
        reference_time=utc(reference_time),
        provenance=provenance or str(source),
    )
    # friends must be resolvable for every dataset account
    unresolved_friends = sorted(
        {
            friend
            for uid in dataset.accounts
            for friend in graph.friends_of(uid)
            if graph.stats_for(friend) is None
        }
    )
    if unresolved_friends:
        raise DanglingReferenceError(
            "edges reference friends with no account and no neighbor summary: "
            + ", ".join(unresolved_friends[:10])
        )
    return dataset


def _entity_counts(path: Path, line: int, text: str, cells) -> list[int]:
    """Hashtag, mention and URL counts: each blank cell derived from the text."""
    derived = count_entities(text)
    return [
        derived[i] if raw is None or not raw.strip() else _field(path, line, column, raw, _parse_int)
        for i, (column, raw) in enumerate(zip(ENTITY_COLUMNS, cells))
    ]


def _bool_cell(value: bool) -> str:
    return "1" if value else "0"


def _account_row(a: Account) -> list[str]:
    """The cells of ``USER_COLUMNS``, in order."""
    return [
        a.user_id,
        a.screen_name,
        a.name,
        format_timestamp(a.created_at),
        str(a.followers_count),
        str(a.friends_count),
        str(a.statuses_count),
        str(a.listed_count),
        str(a.favourites_count),
        a.url or "",
        a.location or "",
        a.description or "",
        _bool_cell(a.default_profile_image),
        a.profile_image_fingerprint or "",
        a.label or "",
    ]


def _tweet_row(t: Tweet) -> list[str]:
    """The cells of ``TWEET_COLUMNS``, in order."""
    return [
        t.tweet_id,
        t.user_id,
        format_timestamp(t.created_at),
        t.text,
        t.source,
        _bool_cell(t.is_retweet),
        str(t.retweet_count),
        _bool_cell(t.is_geolocalized),
        str(t.num_hashtags),
        str(t.num_mentions),
        str(t.num_urls),
    ]


def save_dataset(dataset: LabeledDataset, out_dir, fmt: str = "csv") -> dict[str, Path]:
    """Write the corpus in a deterministic order; returns the written paths."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ext = "csv" if fmt == "csv" else "json"
    written: dict[str, Path] = {}

    tables: list[tuple[str, list[str], list[Sequence[str]]]] = []
    tables.append(
        ("users", USER_COLUMNS, [_account_row(a) for a in dataset.accounts.values()])
    )
    if dataset.tweets is not None:
        rows = [
            _tweet_row(t)
            for uid in dataset.accounts
            for t in sorted(dataset.tweets.get(uid, ()), key=lambda t: (t.created_at, t.tweet_id))
        ]
        tables.append(("tweets", TWEET_COLUMNS, rows))
    if dataset.graph is not None:
        tables.append(("edges", EDGE_COLUMNS, sorted(dataset.graph.edges)))
        neighbor_rows = [
            [nid, str(summary.followers_count), str(summary.statuses_count)]
            for nid, summary in sorted(dataset.graph.neighbor_summaries.items())
        ]
        if neighbor_rows:
            tables.append(("neighbors", NEIGHBOR_COLUMNS, neighbor_rows))

    for name, columns, rows in tables:
        path = out / f"{name}.{ext}"
        if fmt == "csv":
            write_csv(path, columns, rows)
        else:
            # the bytes of json.dumps(..., sort_keys=True) for a row of
            # strings, with the keys sorted and encoded once per table
            order = sorted(range(len(columns)), key=columns.__getitem__)
            keys = [(json_string(columns[i]) + ": ", i) for i in order]
            with open(path, "w", encoding="utf-8") as fh:
                for row in rows:
                    cells = ", ".join([key + json_string(row[i]) for key, i in keys])
                    fh.write("{" + cells + "}\n")
        written[name] = path
    return written
