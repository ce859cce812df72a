"""One committed workspace version, materialised in memory.

A :class:`WorkspaceSnapshot` bundles everything a reader or a writer
needs about one manifest version: the manifest and its fingerprint, the
loaded segments, one :class:`~repro.workspace.segments.MergedSide` per
role and the vocabulary.  :func:`open_snapshot` is the only code that
reads segments off disk; everything else derives from a snapshot:

* :meth:`WorkspaceSnapshot.factory` assembles the warm
  :class:`~repro.core.environment.EnvironmentFactory`
  (:func:`~repro.workspace.loader.load_workspace` is ``open`` then
  ``factory``);
* :func:`~repro.workspace.mutate.commit` turns a snapshot plus a batch
  into the next snapshot, reading back only the delta it wrote.

A single clean base segment (every v1/v2 workspace, and any v3
workspace after compaction) *is* its own live view, so its sides wrap
the stored artifacts directly and opening it merges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.errors import WorkspaceError
from repro.text.vocabulary import Vocabulary
from repro.workspace.manifest import (
    load_manifest,
    manifest_codec,
    manifest_files,
    manifest_fingerprint,
    manifest_segments,
)
from repro.workspace.segments import (
    LoadedSegment,
    MergedSide,
    load_segment,
    merged_view,
)


def workspace_roles(manifest: Mapping[str, Any]) -> tuple[str, ...]:
    """The collection roles a workspace holds (``c1``, plus ``c2`` unless self-join)."""
    return ("c1",) if manifest["self_join"] else ("c1", "c2")


def workspace_spec(manifest: Mapping[str, Any]) -> EnvironmentSpec:
    """The environment layout recipe a manifest describes."""
    return EnvironmentSpec(
        page_bytes=manifest["page_bytes"],
        btree_order=manifest["btree_order"],
        codec=manifest_codec(manifest),
    )


def is_single_clean_base(records: list[Mapping[str, Any]]) -> bool:
    """True for one base segment without tombstones: its files ARE the live view."""
    return (
        len(records) == 1
        and records[0]["kind"] == "base"
        and not any(records[0].get("tombstones", {}).values())
    )


def check_sizes(directory: Path, manifest: Mapping[str, Any]) -> None:
    """Cheap pre-flight: every checksummed file exists with its size."""
    for file_name, entry in manifest_files(manifest).items():
        path = directory / file_name
        if not path.is_file():
            raise WorkspaceError(f"workspace is missing artifact file {path}")
        actual_bytes = path.stat().st_size
        if actual_bytes != entry["bytes"]:
            raise WorkspaceError(
                f"{path}: has {actual_bytes} bytes, manifest records "
                f"{entry['bytes']} (truncated or replaced artifact)"
            )


def side_view(
    role: str,
    name: str,
    segments: list[LoadedSegment],
    spec: EnvironmentSpec,
) -> MergedSide:
    """One role's live view: the stored artifacts when clean, else a merge."""
    if not is_single_clean_base([segment.record for segment in segments]):
        return merged_view(role, name, segments, spec)
    only = segments[0]
    collection = only.collections[role]
    seg_id = only.segment_id
    return MergedSide(
        collection=collection,
        inverted=only.inverted[role],
        btree=only.btrees[role],
        live_by_segment={seg_id: collection.n_documents},
        dead_by_segment={seg_id: 0},
        global_ids={(seg_id, doc.doc_id): doc.doc_id for doc in collection},
    )


@dataclass(frozen=True)
class WorkspaceSnapshot:
    """A manifest version with its segments, live sides and vocabulary."""

    directory: Path
    manifest: Mapping[str, Any]
    fingerprint: str
    segments: tuple[LoadedSegment, ...]
    #: the live view per role (``c1``, and ``c2`` unless self-join)
    sides: Mapping[str, MergedSide]
    vocabulary: Vocabulary | None

    @property
    def roles(self) -> tuple[str, ...]:
        return workspace_roles(self.manifest)

    @property
    def spec(self) -> EnvironmentSpec:
        return workspace_spec(self.manifest)

    @property
    def single_clean_base(self) -> bool:
        return is_single_clean_base([segment.record for segment in self.segments])

    def factory(self) -> EnvironmentFactory:
        """A fresh factory preloaded with this snapshot's live sides.

        A single clean base installs its stored artifacts (``load:``
        events only); otherwise every side is installed as a merged
        view with a ``merge:cN[k]`` event.  Either way
        ``derivation_events()`` stays empty.
        """
        roles = self.roles
        collection2 = None if len(roles) == 1 else self.sides["c2"].collection
        factory = EnvironmentFactory(
            self.sides["c1"].collection, collection2, self.spec
        )
        for side_number, role in enumerate(roles, start=1):
            side = self.sides[role]
            if self.single_clean_base:
                factory.preload_side(side_number, side.inverted, side.btree)
            else:
                factory.preload_merged_side(
                    side_number,
                    side.inverted,
                    side.btree,
                    n_segments=len(self.segments),
                )
        factory.vocabulary = self.vocabulary
        return factory


def open_snapshot(
    directory: str | Path, manifest: Mapping[str, Any] | None = None
) -> WorkspaceSnapshot:
    """Read a workspace directory into a snapshot.

    ``manifest`` skips re-reading a manifest the caller already loaded.
    Malformed directories raise :class:`~repro.errors.WorkspaceError`
    (or the narrower :class:`~repro.errors.DocumentFormatError` /
    :class:`~repro.errors.BPlusTreeError` with byte-level context); in a
    segmented workspace the message leads with the failing segment id.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = load_manifest(directory)
    check_sizes(directory, manifest)
    spec = workspace_spec(manifest)
    segments = [
        load_segment(directory, record, btree_order=manifest["btree_order"])
        for record in manifest_segments(manifest)
    ]
    clean = is_single_clean_base([segment.record for segment in segments])
    sides: dict[str, MergedSide] = {}
    for role in workspace_roles(manifest):
        name = manifest["collections"][role]["name"]
        sides[role] = side_view(role, name, segments, spec)
        declared = manifest["collections"][role]["n_documents"]
        live = sides[role].collection.n_documents
        if live != declared:
            verb = "loads" if clean else "merges to"
            noun = "documents" if clean else "live documents"
            raise WorkspaceError(
                f"collection {name!r} {verb} {live} {noun}, manifest records "
                f"{declared}"
            )
    vocabulary = None
    if manifest["vocabulary"] is not None:
        vocabulary = Vocabulary.load(directory / manifest["vocabulary"])
    return WorkspaceSnapshot(
        directory=directory,
        manifest=manifest,
        fingerprint=manifest_fingerprint(manifest),
        segments=tuple(segments),
        sides=sides,
        vocabulary=vocabulary,
    )


def current_snapshot(
    snapshot: WorkspaceSnapshot, manifest: Mapping[str, Any] | None = None
) -> WorkspaceSnapshot:
    """``snapshot`` while it still describes its directory, else a fresh open.

    The on-disk manifest (``manifest``, or read here) is compared by
    fingerprint: a write made behind the snapshot's back — the CLI, or
    another process — moves it, and the directory is opened again so no
    committed write is ever lost.
    """
    if manifest is None:
        manifest = load_manifest(snapshot.directory)
    if manifest_fingerprint(manifest) == snapshot.fingerprint:
        return snapshot
    return open_snapshot(snapshot.directory, manifest)


__all__ = [
    "WorkspaceSnapshot",
    "check_sizes",
    "current_snapshot",
    "is_single_clean_base",
    "open_snapshot",
    "side_view",
    "workspace_roles",
    "workspace_spec",
]
