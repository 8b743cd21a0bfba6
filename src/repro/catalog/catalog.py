"""The catalog: the registry of every named object in a Mosaic database."""

from __future__ import annotations

from repro.catalog.metadata import Marginal
from repro.catalog.population import PopulationRelation
from repro.catalog.sample import SampleRelation
from repro.errors import CatalogError, DuplicateRelationError, UnknownRelationError
from repro.relational.relation import Relation


class Catalog:
    """Name → object registry for auxiliary tables, populations, samples,
    and metadata.

    Names share one namespace (as in the paper's examples, where
    populations and samples are queried with identical syntax), so a lookup
    by name can always be disambiguated.

    **Locking contract** (see ``ARCHITECTURE.md``): the catalog has no
    locks of its own.  The owning :class:`~repro.core.engine.Engine`
    serializes every mutation (create/drop/register, sample data and
    weight swaps) under the write side of its readers-writer lock and runs
    SELECTs under the read side, so within a query the registry and every
    object's ``uid`` / ``version`` / ``metadata_version`` are frozen —
    version stamps read under the read lock are consistent with the data
    they describe.  Callers outside an engine get no thread safety.
    """

    def __init__(self) -> None:
        self._auxiliary: dict[str, Relation] = {}
        # Per-auxiliary data version: bumps on create and on every
        # replace (INSERT).  Samples carry their own ``version``; this
        # gives auxiliary tables the same stable (name, version) identity
        # so caches (e.g. shared-memory segments) can key on data content
        # instead of Python object identity.
        self._auxiliary_versions: dict[str, int] = {}
        self._populations: dict[str, PopulationRelation] = {}
        self._samples: dict[str, SampleRelation] = {}
        self._metadata_owner: dict[str, str] = {}  # metadata name -> population name
        self._global_population: str | None = None
        #: Monotonically increasing DDL counter: bumps on every create/drop/
        #: register operation (not on DML like INSERT, which bumps only the
        #: touched sample's version).  Cache layers use it for statistics and
        #: coarse "has the schema landscape changed" checks.
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    # ------------------------------------------------------------------ #
    # Name management
    # ------------------------------------------------------------------ #

    def _assert_fresh(self, name: str) -> None:
        if name in self._auxiliary or name in self._populations or name in self._samples:
            raise DuplicateRelationError(name)

    def kind_of(self, name: str) -> str:
        """One of ``"auxiliary" | "population" | "sample"``."""
        if name in self._auxiliary:
            return "auxiliary"
        if name in self._populations:
            return "population"
        if name in self._samples:
            return "sample"
        raise UnknownRelationError(name)

    # ------------------------------------------------------------------ #
    # Auxiliary tables
    # ------------------------------------------------------------------ #

    def create_auxiliary(self, name: str, relation: Relation) -> None:
        self._assert_fresh(name)
        self._auxiliary[name] = relation
        # Never resets across DROP + CREATE of the same name, so a given
        # (name, version) pair always refers to one concrete relation.
        self._auxiliary_versions[name] = self._auxiliary_versions.get(name, 0) + 1
        self._bump()

    def replace_auxiliary(self, name: str, relation: Relation) -> None:
        if name not in self._auxiliary:
            raise UnknownRelationError(name)
        self._auxiliary[name] = relation
        self._auxiliary_versions[name] += 1

    def auxiliary(self, name: str) -> Relation:
        relation = self._auxiliary.get(name)
        if relation is None:
            raise UnknownRelationError(name)
        return relation

    # ------------------------------------------------------------------ #
    # Populations
    # ------------------------------------------------------------------ #

    def create_population(self, population: PopulationRelation) -> None:
        self._assert_fresh(population.name)
        if population.is_global:
            if self._global_population is not None:
                raise CatalogError(
                    f"a global population already exists: {self._global_population!r} "
                    "(the paper assumes a single GP; see Sec. 7 'Multiple Populations')"
                )
            self._global_population = population.name
        else:
            source = population.source_population
            if source is None or source not in self._populations:
                raise CatalogError(
                    f"population {population.name!r} must be defined over an existing "
                    f"global population, got {source!r}"
                )
            if not self._populations[source].is_global:
                raise CatalogError(
                    f"population {population.name!r} must be defined over the GLOBAL "
                    f"population, but {source!r} is not global"
                )
        self._populations[population.name] = population
        self._bump()

    def population(self, name: str) -> PopulationRelation:
        population = self._populations.get(name)
        if population is None:
            raise UnknownRelationError(name)
        return population

    @property
    def global_population(self) -> PopulationRelation | None:
        if self._global_population is None:
            return None
        return self._populations[self._global_population]

    # ------------------------------------------------------------------ #
    # Samples
    # ------------------------------------------------------------------ #

    def create_sample(self, sample: SampleRelation) -> None:
        self._assert_fresh(sample.name)
        if sample.population not in self._populations:
            raise CatalogError(
                f"sample {sample.name!r} references unknown population "
                f"{sample.population!r}"
            )
        self._samples[sample.name] = sample
        self._bump()

    def sample(self, name: str) -> SampleRelation:
        sample = self._samples.get(name)
        if sample is None:
            raise UnknownRelationError(name)
        return sample

    def samples_of(self, population_name: str) -> list[SampleRelation]:
        """Every sample drawn from ``population_name`` (registration order)."""
        return [s for s in self._samples.values() if s.population == population_name]

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #

    def register_metadata(
        self, metadata_name: str, population_name: str, marginal: Marginal
    ) -> None:
        if metadata_name in self._metadata_owner:
            raise CatalogError(f"metadata {metadata_name!r} already exists")
        population = self.population(population_name)
        population.add_marginal(metadata_name, marginal)
        self._metadata_owner[metadata_name] = population_name
        self._bump()

    def resolve_metadata_population(self, metadata_name: str, explicit: str | None) -> str:
        """Which population a ``CREATE METADATA`` statement targets.

        Priority: an explicit ``FOR <population>`` clause; otherwise the
        paper's naming convention ``<population>_Mk`` (longest matching
        population-name prefix before an underscore); otherwise the single
        existing population, if there is exactly one.
        """
        if explicit is not None:
            self.population(explicit)
            return explicit
        candidates = [
            name
            for name in self._populations
            if metadata_name == name or metadata_name.startswith(f"{name}_")
        ]
        if candidates:
            return max(candidates, key=len)
        if len(self._populations) == 1:
            return next(iter(self._populations))
        raise CatalogError(
            f"cannot infer which population metadata {metadata_name!r} belongs to; "
            "use CREATE METADATA <name> FOR <population> AS (...) or the "
            "<population>_Mk naming convention"
        )

    # ------------------------------------------------------------------ #
    # Drop
    # ------------------------------------------------------------------ #

    def drop(self, kind: str, name: str) -> None:
        kind = kind.upper()
        if kind == "TABLE":
            if name not in self._auxiliary:
                raise UnknownRelationError(name)
            del self._auxiliary[name]
            self._bump()
            return
        if kind == "POPULATION":
            if name not in self._populations:
                raise UnknownRelationError(name)
            dependents = [s.name for s in self.samples_of(name)]
            if dependents:
                raise CatalogError(
                    f"cannot drop population {name!r}: samples {dependents} depend on it"
                )
            derived = [
                p.name for p in self._populations.values() if p.source_population == name
            ]
            if derived:
                raise CatalogError(
                    f"cannot drop population {name!r}: populations {derived} are views over it"
                )
            for metadata_name in [
                m for m, owner in self._metadata_owner.items() if owner == name
            ]:
                del self._metadata_owner[metadata_name]
            if self._global_population == name:
                self._global_population = None
            del self._populations[name]
            self._bump()
            return
        if kind == "SAMPLE":
            if name not in self._samples:
                raise UnknownRelationError(name)
            del self._samples[name]
            self._bump()
            return
        if kind == "METADATA":
            owner = self._metadata_owner.get(name)
            if owner is None:
                raise UnknownRelationError(name)
            self._populations[owner].drop_marginal(name)
            del self._metadata_owner[name]
            self._bump()
            return
        raise CatalogError(f"unknown DROP kind: {kind!r}")

    def __repr__(self) -> str:
        return (
            f"Catalog(auxiliary={len(self._auxiliary)}, "
            f"populations={len(self._populations)}, samples={len(self._samples)})"
        )
