"""The collected dataset and its on-disk format.

The analysis package (Section 4 of the paper) consumes only this dataset —
never the simulator's ground truth — so the separation between what the
platform/crawler could observe and what the simulator knows is enforced by
construction.

Records serialise to JSON Lines.  The paper encrypted its dataset at rest
and analysed only aggregates; we mirror the structure (per-liker public
attributes, per-campaign observations) without any out-of-band fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
    get_args, get_origin, get_type_hints,
)

from repro import failpoints
from repro.util.durable import fsync_dir, fsync_handle


def write_jsonl_rows(path: Path, rows: Iterable[Dict], tag: str = "dataset") -> None:
    """Atomically and durably write an iterable of row dicts as JSON Lines.

    The one serialisation path every dataset export shares — the in-memory
    :meth:`HoneypotDataset.to_jsonl` and the SQLite-backed
    :meth:`repro.store.HoneypotStore.to_jsonl` both stream their rows
    through here, so "byte-identical exports" is a structural property,
    not a convention.  Rows go to a sibling temp file which is fsync'd
    before it replaces ``path``, and the directory entry is fsync'd after
    the rename: a crash mid-write can never leave a truncated dataset
    where a previous good one stood, and a crash immediately after the
    rename cannot surface an empty file (rename alone orders nothing
    against the page cache).
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with tmp_path.open("w", encoding="utf-8") as handle:
            first = True
            for row in rows:
                line = json.dumps(row) + "\n"
                if first:
                    first = False
                    failpoints.hit(
                        "durable.write.data",
                        torn=lambda: (
                            handle.write(line[: len(line) // 2]),
                            handle.flush(),
                        ),
                    )
                handle.write(line)
            fsync_handle(handle, tag=tag)
        failpoints.hit("durable.rename", torn=lambda: None)
        tmp_path.replace(path)
        fsync_dir(path.parent, tag=tag)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class LikeObservation:
    """A like first observed by the monitor at ``observed_at``."""

    observed_at: int
    user_id: int


@dataclass
class CampaignRecord:
    """Everything the study recorded about one campaign."""

    campaign_id: str
    provider: str
    kind: str
    location_label: str
    budget_label: str
    duration_days: float
    monitored_days: float
    page_id: int
    total_likes: int
    observations: List[LikeObservation] = field(default_factory=list)
    terminated_liker_ids: List[int] = field(default_factory=list)
    inactive: bool = False
    removed_like_count: int = 0  # likes purged by enforcement (Section 5 follow-up)
    # Ad spend, or the farm package price (paid up front); None when unknown
    # (a store replayed from a checkpoint journal has no cost record).
    total_cost: Optional[float] = 0.0

    @property
    def liker_ids(self) -> List[int]:
        """Likers in first-observed order."""
        return [obs.user_id for obs in self.observations]


#: ``LikerRecord.crawl_status`` values.
CRAWL_COMPLETE = "complete"
CRAWL_PARTIAL = "partial"


@dataclass
class LikerRecord:
    """Crawled public information about one liker.

    ``declared_friend_count`` and ``visible_friend_ids`` are None/empty when
    the friend list was private — the crawler's censoring, kept explicit so
    analyses treat friend data as the lower bound the paper says it is.

    ``crawl_status`` is ``"complete"`` when every endpoint answered and
    ``"partial"`` when some crawl requests failed permanently;
    ``failed_fields`` then names the lost field groups (``"friends"``,
    ``"likes"``).  Demographics always survive — they come from the
    page-insights reports, not the profile crawl — so a partial record
    still carries gender/age/country.  Analyses must treat a partial
    record's missing fields as *uncrawled*, not as empty.
    """

    user_id: int
    gender: str
    age_bracket: str
    country: str
    friend_list_public: bool
    declared_friend_count: Optional[int]
    visible_friend_ids: List[int] = field(default_factory=list)
    liked_page_ids: List[int] = field(default_factory=list)
    declared_like_count: int = 0
    campaign_ids: List[str] = field(default_factory=list)
    terminated: bool = False
    crawl_status: str = CRAWL_COMPLETE
    failed_fields: List[str] = field(default_factory=list)

    @property
    def has_friend_data(self) -> bool:
        """Whether the friend crawl completed (public or provably private)."""
        return "friends" not in self.failed_fields

    @property
    def has_like_data(self) -> bool:
        """Whether the liked-pages crawl completed."""
        return "likes" not in self.failed_fields


@dataclass(frozen=True)
class BaselineRecord:
    """One user of the random baseline sample (paper Section 4.4)."""

    user_id: int
    declared_like_count: int


#: Field types a row holds as-is: immutable, so sharing them never aliases.
_ATOMS = (int, float, str, bool, type(None))


def _is_atom(hint) -> bool:
    if get_origin(hint) is Union:
        return all(_is_atom(arg) for arg in get_args(hint))
    return hint in _ATOMS


def _field_copier(cls: type, name: str, hint) -> Optional[Callable]:
    """How :func:`record_row` copies one field: ``None`` shares an atom,
    ``list`` copies a list of atoms, and a list of records encodes each."""
    if _is_atom(hint):
        return None
    if get_origin(hint) is list:
        (item,) = get_args(hint) or (object,)
        if _is_atom(item):
            return list
        if is_dataclass(item):
            return lambda items: [record_row(each) for each in items]
    raise TypeError(
        f"record_row cannot encode {cls.__name__}.{name} of type {hint!r}"
    )


@lru_cache(maxsize=None)
def _row_plan(cls: type) -> Tuple[Tuple[str, Optional[Callable]], ...]:
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _field_copier(cls, f.name, hints[f.name]))
        for f in fields(cls)
    )


def record_row(record) -> Dict:
    """One dataset record as a plain row dict — the one record → row path.

    The journal, the JSONL export and the store all encode records here.
    The row equals the stdlib's recursive dataclass-to-dict conversion:
    the same keys in field order and the same values, with
    :class:`LikeObservation` items as ``{"observed_at", "user_id"}`` dicts.
    Lists are fresh shallow copies, so a row never aliases its record, but
    no leaf goes through ``copy.deepcopy``.  The plan comes from
    :func:`dataclasses.fields` once per class, so every field is encoded;
    a field type with no copy rule is a :class:`TypeError` on first use
    rather than a silently shared value.
    """
    return {
        name: getattr(record, name) if copy is None else copy(getattr(record, name))
        for name, copy in _row_plan(type(record))
    }


@dataclass
# repro-lint: allow-CKPT001 built in one shot by _collect() after the crawl barrier, never mutated across a barrier; its inputs (monitor snapshots) are journaled write-ahead
class HoneypotDataset:
    """The full study output: campaigns, likers, baseline, global stats."""

    campaigns: Dict[str, CampaignRecord] = field(default_factory=dict)
    likers: Dict[int, LikerRecord] = field(default_factory=dict)
    baseline: List[BaselineRecord] = field(default_factory=list)
    global_gender: Dict[str, float] = field(default_factory=dict)
    global_age: Dict[str, float] = field(default_factory=dict)
    global_country: Dict[str, float] = field(default_factory=dict)

    def campaign(self, campaign_id: str) -> CampaignRecord:
        """Look up a campaign record by id."""
        return self.campaigns[campaign_id]

    def campaign_ids(self) -> List[str]:
        """Campaign ids in insertion (Table 1) order."""
        return list(self.campaigns.keys())

    def likers_of(self, campaign_id: str) -> List[LikerRecord]:
        """Liker records for one campaign, first-observed order."""
        record = self.campaigns[campaign_id]
        return [self.likers[u] for u in record.liker_ids if u in self.likers]

    @property
    def total_likes(self) -> int:
        """Sum of likes across all campaigns (the paper's 6,292)."""
        return sum(c.total_likes for c in self.campaigns.values())

    # -- persistence --------------------------------------------------------------

    def iter_rows(self) -> Iterator[Dict]:
        """The dataset as typed JSONL row dicts, in export order.

        Exactly the rows :meth:`to_jsonl` writes: one ``meta`` row, then
        campaigns in insertion (Table 1) order, likers in insertion
        (first-crawled) order, and the baseline sample.  This is also the
        ingest stream :class:`repro.store.HoneypotStore` consumes.
        """
        yield {
            "type": "meta",
            "global_gender": self.global_gender,
            "global_age": self.global_age,
            "global_country": self.global_country,
        }
        for campaign in self.campaigns.values():
            row = record_row(campaign)
            row["type"] = "campaign"
            yield row
        for liker in self.likers.values():
            row = record_row(liker)
            row["type"] = "liker"
            yield row
        for record in self.baseline:
            row = record_row(record)
            row["type"] = "baseline"
            yield row

    def to_jsonl(self, path: Path) -> None:
        """Write the dataset as JSON Lines (one typed record per line).

        Delegates to :func:`write_jsonl_rows` for the atomic, durable
        write (temp file + fsync + rename + directory fsync).
        """
        write_jsonl_rows(path, self.iter_rows())

    @classmethod
    def from_jsonl(cls, path: Path) -> "HoneypotDataset":
        """Load a dataset previously written by :meth:`to_jsonl`.

        Raises :class:`ValueError` naming the file, line number, and cause
        when a line is not valid JSON or is not a recognised record — a
        corrupt dataset, torn final line included, fails loudly instead of
        half-loading.
        """
        dataset = cls()
        path = Path(path)
        for row, line_number in iter_jsonl_rows(path):
            apply_row(dataset, row, source=f"{path}:{line_number}")
        return dataset


def iter_jsonl_rows(path: Path) -> Iterator[tuple]:
    """Stream ``(row, line_number)`` pairs from a dataset JSONL file.

    The parsing half of :meth:`HoneypotDataset.from_jsonl`.  The file is
    read whole; rows are yielded one at a time.  Any line that is not a
    JSON object raises :class:`ValueError` naming the file and line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{line_number}: unparseable JSON line ({error.msg})"
            ) from error
        if not isinstance(row, dict):
            # A bare scalar/array parses as JSON but can never be a record.
            raise ValueError(
                f"{path}:{line_number}: JSONL row is not an object "
                f"({type(row).__name__})"
            )
        yield row, line_number


def apply_row(dataset: HoneypotDataset, row: Dict, source: str = "<row>") -> None:
    """Apply one typed JSONL row dict to ``dataset``, validating its shape.

    Raises :class:`ValueError` naming ``source`` (``file:line`` when read
    from disk) when the record type is unknown or its fields do not match
    the record schema — a structurally corrupt row fails loudly instead of
    surfacing as a bare ``TypeError`` deep in a dataclass constructor.
    """
    row = dict(row)
    kind = row.pop("type", None)
    try:
        if kind == "meta":
            dataset.global_gender = row["global_gender"]
            dataset.global_age = row["global_age"]
            dataset.global_country = row["global_country"]
        elif kind == "campaign":
            row["observations"] = [
                LikeObservation(**obs) for obs in row["observations"]
            ]
            record = CampaignRecord(**row)
            dataset.campaigns[record.campaign_id] = record
        elif kind == "liker":
            liker = LikerRecord(**row)
            dataset.likers[liker.user_id] = liker
        elif kind == "baseline":
            dataset.baseline.append(BaselineRecord(**row))
        else:
            raise ValueError(f"{source}: unknown record type {kind!r}")
    except (TypeError, KeyError) as error:
        raise ValueError(
            f"{source}: malformed {kind!r} record ({error})"
        ) from error
