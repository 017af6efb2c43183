"""Seeded input generator for the citescreen benchmark.

Every workload is built from one ``random.Random`` seeded with the
workload name and the seed, so the same seed gives byte-identical inputs
and another seed gives other content.  Titles, abstracts, MeSH headings,
publication types, journals and years are drawn from the bundled
lexicon, drug hierarchy, hyponym table and journal list, read here with
parsers of the benchmark's own.  No two citations share a title and
abstract, so a cache keyed on content gets no free hits.

The generator also decides which citations each topic's Boolean query
must fetch (the planted match set), with a matcher of its own that
follows the query semantics documented in the program: a MeSH conjunct
matches a descriptor or a phrase in the title, the journal must be on
the whitelist, the year at least 1974, and one of eleven publication
types must be found by index, MeSH descriptor or phrase.  Decoys fail
exactly one conjunct.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import string
from dataclasses import dataclass, field
from xml.sax.saxutils import escape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "src", "citescreen", "data")

PUB_TYPES = (
    "Systematic Review", "Randomized Controlled Trial", "Multiple Time Series",
    "Nonrandomized Trial", "Cohort", "Case-Control", "Time Series",
    "Cross-Sectional", "Case Studies", "Practice Guideline", "Editorial",
)
#: Phrases the program scans title and abstract for when no index names a type.
PUB_TYPE_PHRASES = (
    "randomized controlled trial", "systematic review", "multiple time series",
    "nonrandomized trial", "time series", "cohort", "case control",
    "cross sectional", "practice guideline", "editorial", "case studies",
    "case study",
)
BAD_PUB_TYPES = ("Letter", "Comment", "News", "Biography")
GOOD_QUALIFIERS = (
    "therapy", "drug therapy", "mortality", "prevention and control",
    "complications", "epidemiology", "therapeutic use", "adverse effects",
)
BAD_QUALIFIERS = ("physiopathology", "metabolism", "blood", "genetics", "urine")
OFF_JOURNALS = (
    "Journal of Veterinary Cardiology", "Annals of Botany",
    "Proceedings of the Regional Nursing Forum",
)
MIN_YEAR = 1974

_FILLER = """
outcomes dosing regimen exposure baseline endpoint measures response
tolerability adherence titration clearance levels markers function perfusion
admissions visits events hospitalization discharge symptoms biomarkers
creatinine potassium sodium pressure rhythm quality scores rates intervals
variability capacity tolerance burden risk safety efficacy benefit harm costs
utilization registry centres protocol analysis subgroup estimates trends
strategy monitoring assessment imaging echocardiography volume congestion
decongestion weight frailty cognition mobility sleep appetite fatigue dyspnea
edema renal hepatic vascular diastolic adjusted modest sustained significant
lower higher early late daily weekly intravenous prolonged stable variable
consistent comparable favourable clinical secondary primary composite median
mean annual regional national multicentre prospective retrospective
observational pragmatic enrolment allocation sampling readings laboratory
telemetry ambulatory nocturnal morning evening seasonal urban rural tertiary
community hospital clinic ward unit nurse pharmacist physician dietary
exercise walking distance oxygen saturation lactate troponin peptide
natriuretic filtration estimated glomerular serum plasma urinary protein
albumin ratio threshold target achieved attained delayed rapid gradual
excess deficit reduction elevation decline gain loss change shift pattern
profile signal feature model score index panel cluster stratum quartile
tertile decile window period phase interval year month week day hour
""".split()
_VERBS = """
remained differed declined rose fell varied persisted stabilized
improved worsened narrowed widened plateaued converged diverged
""".split()
_CONNECT = ("across", "during", "after", "before", "within", "among", "over")
_UNITS = ("weeks", "months", "days", "visits")
_SECTIONS = ("BACKGROUND", "METHODS", "RESULTS", "CONCLUSIONS")


# ---------------------------------------------------------------------------
# Bundled resources, parsed independently of the program
# ---------------------------------------------------------------------------

def norm(text: str) -> str:
    """Lower-case, hyphen and slash to space, punctuation stripped."""
    text = text.lower().replace("-", " ").replace("/", " ")
    parts = [p.strip(string.punctuation + string.whitespace) for p in text.split()]
    return " ".join(p for p in parts if p)


@dataclass
class Vocab:
    lexicon: dict[str, list[str]]        # group -> surfaces
    chains: dict[str, list[str]]         # drug display name -> leaf-to-root chain
    classes: dict[str, list[str]]        # level-2 class -> drugs under it
    hyponyms: dict[str, list[str]]
    journals: list[str]
    filler: list[str]

    def populations(self) -> list[str]:
        """Two-word population phrases that name no other concept.

        Words the program's chunker reads as verbs (``-ed``, ``-ing``)
        would change how a question title is chunked, and with it which
        titles cover the question's population, so they are left out.
        """
        other = {w for g, ss in self.lexicon.items() if g != "population"
                 for s in ss for w in norm(s).split()}
        return [p for p in self.lexicon["population"]
                if len(p.split()) == 2 and not set(norm(p).split()) & other
                and not any(w.endswith(("ed", "ing")) for w in p.split())]

    def chain_terms(self, drug: str) -> set[str]:
        return {norm(n) for n in self.chains[drug]}

    def disease_terms(self, disease: str) -> set[str]:
        return {norm(disease), *(norm(h) for h in self.hyponyms.get(norm(disease), []))}


def load_vocab(data_dir: str = DATA_DIR) -> Vocab:
    lexicon: dict[str, list[str]] = {}
    with open(os.path.join(data_dir, "lexicon.tsv"), encoding="utf-8") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            if len(cols) == 3 and not line.startswith("#"):
                lexicon.setdefault(cols[2].strip(), []).append(cols[0].strip())

    chains: dict[str, list[str]] = {}
    classes: dict[str, list[str]] = {}
    stack: list[str] = []
    with open(os.path.join(data_dir, "drug_hierarchy.txt"), encoding="utf-8") as fh:
        for raw in fh:
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            depth = len(raw) - len(raw.lstrip("\t"))
            del stack[depth:]
            stack.append(raw.strip())
            if depth == 3:
                chains[raw.strip()] = list(reversed(stack))
                classes.setdefault(stack[1], []).append(raw.strip())

    hyponyms: dict[str, list[str]] = {}
    with open(os.path.join(data_dir, "hyponyms.tsv"), encoding="utf-8") as fh:
        for line in fh:
            cols = line.rstrip("\n").split("\t")
            if len(cols) == 2:
                hyponyms[norm(cols[0])] = [h.strip() for h in cols[1].split(",") if h.strip()]

    with open(os.path.join(data_dir, "journals.txt"), encoding="utf-8") as fh:
        journals = [line.strip() for line in fh if line.strip()]

    # Filler must never form a concept, a publication-type phrase or a
    # conclusion cue by accident, so any word used by those is dropped.
    banned = {w for surfaces in lexicon.values() for s in surfaces for w in norm(s).split()}
    banned |= {w for p in PUB_TYPE_PHRASES for w in p.split()}
    banned |= {w for d in chains.values() for n in d for w in norm(n).split()}
    banned |= {"conclusion", "conclude", "conclusions", "trial", "studies", "study"}
    filler = [w for w in _FILLER if w not in banned]
    lexicon_drugs = {norm(s) for s in lexicon.get("chemical", [])}
    chains = {d: c for d, c in chains.items() if norm(d) in lexicon_drugs}
    classes = {c: [d for d in ds if d in chains] for c, ds in classes.items()}
    return Vocab(lexicon, chains, {c: ds for c, ds in classes.items() if ds},
                 hyponyms, journals, filler)


# ---------------------------------------------------------------------------
# Records, topics and the independent query matcher
# ---------------------------------------------------------------------------

@dataclass
class Record:
    pmid: int
    title: str
    blocks: list[tuple[str | None, str]] = field(default_factory=list)
    mesh: list[tuple[str, str | None, bool]] = field(default_factory=list)
    pub_types: list[str] = field(default_factory=list)
    journal: str = ""
    year: int = 2010
    plan: str = ""           # planned screening outcome, for reporting only

    def to_xml(self) -> str:
        out = [f"<MedlineCitation>\n  <PMID>{self.pmid}</PMID>\n  <Article>\n"
               f"    <Journal><Title>{escape(self.journal)}</Title><JournalIssue>"
               f"<PubDate><Year>{self.year}</Year></PubDate></JournalIssue></Journal>\n"
               f"    <ArticleTitle>{escape(self.title)}</ArticleTitle>\n"]
        if self.blocks:
            out.append("    <Abstract>\n")
            for label, text in self.blocks:
                attr = f' Label="{label}"' if label else ""
                out.append(f"      <AbstractText{attr}>{escape(text)}</AbstractText>\n")
            out.append("    </Abstract>\n")
        out.append("    <PublicationTypeList>")
        out.extend(f"<PublicationType>{escape(p)}</PublicationType>" for p in self.pub_types)
        out.append("</PublicationTypeList>\n  </Article>\n  <MeshHeadingList>\n")
        for descriptor, qualifier, major in self.mesh:
            yn = "Y" if major else "N"
            if qualifier:
                out.append(f"    <MeshHeading><DescriptorName>{escape(descriptor)}</DescriptorName>"
                           f"<QualifierName MajorTopicYN=\"{yn}\">{escape(qualifier)}"
                           f"</QualifierName></MeshHeading>\n")
            else:
                out.append(f"    <MeshHeading><DescriptorName MajorTopicYN=\"{yn}\">"
                           f"{escape(descriptor)}</DescriptorName></MeshHeading>\n")
        out.append("  </MeshHeadingList>\n</MedlineCitation>\n")
        return "".join(out)

    def abstract_text(self) -> str:
        return " ".join(text for _, text in self.blocks)


@dataclass
class Topic:
    topic_id: str
    title: str
    disease: str
    drug: str
    population: str
    disease_terms: set[str]
    drug_terms: set[str]
    gold: list[int] = field(default_factory=list)


def _mesh_conjunct(terms: set[str], record: Record) -> bool:
    if any(norm(d) in terms for d, _, _ in record.mesh):
        return True
    title = f" {norm(record.title)} "
    return any(f" {t} " in title for t in terms)


def _has_pub_type(record: Record) -> bool:
    allowed = {norm(p) for p in PUB_TYPES}
    if any(norm(p) in allowed for p in record.pub_types):
        return True
    if any(norm(d) in allowed for d, _, _ in record.mesh):
        return True
    for text in (record.title, record.abstract_text()):
        padded = f" {norm(text)} "
        if any(f" {p} " in padded for p in PUB_TYPE_PHRASES):
            return True
    return False


def query_matches(topic: Topic, record: Record, journals: set[str]) -> bool:
    return (_mesh_conjunct(topic.disease_terms, record)
            and _mesh_conjunct(topic.drug_terms, record)
            and norm(record.journal) in journals
            and record.year >= MIN_YEAR
            and _has_pub_type(record))


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

class Writer:
    """Draws filler text; every title and abstract it yields is unique."""

    def __init__(self, rng: random.Random, vocab: Vocab):
        self.rng = rng
        self.vocab = vocab
        self.seen: set[tuple[str, str]] = set()

    def words(self, n: int) -> list[str]:
        return [self.rng.choice(self.vocab.filler) for _ in range(n)]

    def code(self) -> str:
        letters = "".join(self.rng.choice("BDFGHJKLMNPRSTVWXZ") for _ in range(2))
        return f"{letters}{self.rng.randint(1000, 9999)}"

    def clause(self, n: int) -> str:
        w = self.words(n)
        verb = self.rng.choice(_VERBS)
        cut = max(1, n // 2)
        return (f"{' '.join(w[:cut])} {verb} {self.rng.choice(_CONNECT)} "
                f"{self.rng.randint(2, 96)} {self.rng.choice(_UNITS)} of {' '.join(w[cut:])}")

    def sentence(self, *phrases: str, n: int | None = None) -> str:
        """A sentence of filler with ``phrases`` inserted at random points."""
        body = self.clause(n or 7).split()
        for phrase in phrases:
            body.insert(self.rng.randint(0, len(body)), phrase)
        text = " ".join(body)
        return text[0].upper() + text[1:] + "."

    def unique(self, title: str, blocks: list[tuple[str | None, str]]) -> bool:
        key = (title, " ".join(t for _, t in blocks))
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def abbreviation(long_form: str) -> str:
    """Initials of a multi-word form; first, middle and last letter otherwise."""
    words = long_form.split()
    if len(words) > 1:
        return "".join(w[0] for w in words).upper()
    w = words[0]
    return (w[0] + w[len(w) // 2] + w[-1]).upper()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    topics: list[Topic]
    records: list[Record]
    gold_k: int
    live: bool = False
    rate_limit_ms: int = 100
    page_size: int = 100
    planted: dict[str, list[int]] = field(default_factory=dict)
    properties: dict[str, float] = field(default_factory=dict)


def _pick_topics(rng, vocab, diseases, n_topics, topic_prefix="T"):
    """Topics cycling through ``diseases``, each with a drawn drug and population."""
    populations = vocab.populations()
    drugs = sorted(vocab.chains)
    topics = []
    for i in range(n_topics):
        disease = diseases[i % len(diseases)]
        drug = rng.choice(drugs)
        pop = rng.choice(populations)
        title = f"{drug} for {disease} in {pop}"
        topics.append(Topic(f"{topic_prefix}{i + 1:02d}", title[0].upper() + title[1:],
                            disease, drug, pop, vocab.disease_terms(disease),
                            vocab.chain_terms(drug)))
    return topics


def _good_fields(rng, vocab, record: Record):
    record.journal = rng.choice(vocab.journals)
    record.year = rng.randint(1980, 2016)
    record.pub_types = [rng.choice(PUB_TYPES)]


def _make_decoy(rng, vocab, record: Record, kind: int):
    """Break exactly one conjunct of an otherwise matching record."""
    _good_fields(rng, vocab, record)
    if kind == 0:
        record.journal = rng.choice(OFF_JOURNALS)
    elif kind == 1:
        record.year = rng.randint(1950, MIN_YEAR - 1)
    else:
        record.pub_types = [rng.choice(BAD_PUB_TYPES)]
    record.plan = "decoy"


def _finish(wl: Workload, vocab: Vocab, rng: random.Random) -> Workload:
    """Shuffle record order, compute planted match sets and check the decoys."""
    rng.shuffle(wl.records)
    journals = {norm(j) for j in vocab.journals}
    by_pmid = {r.pmid: r for r in wl.records}
    for topic in wl.topics:
        wl.planted[topic.topic_id] = sorted(
            r.pmid for r in wl.records if query_matches(topic, r, journals))
        missing = [p for p in topic.gold if p not in by_pmid]
        if missing:
            raise AssertionError(f"gold PMIDs without records: {missing}")
    fetched_any = {p for pmids in wl.planted.values() for p in pmids}
    leaked = [r.pmid for r in wl.records if r.plan == "decoy" and r.pmid in fetched_any]
    if leaked:
        raise AssertionError(f"{wl.name}: decoys matched a query: {leaked[:5]}")
    return wl


def topics_shared(seed: int, vocab: Vocab) -> Workload:
    """Many topics over one corpus; each citation is fetched by several topics.

    Topics fall into cells of (disease, drug class).  Every citation of a
    cell carries the cell's class as a MeSH descriptor, so all topics of
    the cell fetch it.
    """
    rng = random.Random(f"topics_shared:{seed}")
    w = Writer(rng, vocab)
    diseases = ["heart failure", "atrial fibrillation", "hypertension"]
    classes = ["Diuretics", "Beta adrenergic blockers", "Renin angiotensin system antagonists"]
    populations = vocab.populations()
    per_cell_topics = 3
    ids = itertools.count(100001)
    topics, records = [], []
    for d in diseases:
        for c in classes:
            drugs = rng.sample(vocab.classes[c], min(per_cell_topics, len(vocab.classes[c])))
            cell = []
            for drug in drugs:
                pop = rng.choice(populations)
                t = Topic(f"S{len(topics) + 1:02d}", f"{drug} for {d} in {pop}", d, drug, pop,
                          vocab.disease_terms(d), vocab.chain_terms(drug))
                topics.append(t)
                cell.append(t)
            for focus in cell:
                for kind in range(4):
                    rec = _shared_record(w, next(ids), focus, c, d, kind)
                    records.append(rec)
                    if rec.plan in ("title", "abstract"):
                        focus.gold.append(rec.pmid)
            for j, focus in enumerate(cell):
                decoy = _shared_record(w, next(ids), focus, c, d, 0)
                _make_decoy(rng, vocab, decoy, j)
                records.append(decoy)
                focus.gold.append(decoy.pmid)
    # Citations no topic fetches: other diseases, same drugs.
    for _ in range(len(records) // 6):
        t = rng.choice(topics)
        rec = _shared_record(w, next(ids), t, "Vasodilators", "osteoporosis", 1)
        rec.plan = "unmatched"
        records.append(rec)
    wl = _finish(Workload("topics_shared", topics, records, gold_k=3), vocab, rng)
    seen: set[int] = set()
    total = repeated = 0
    for t in topics:
        for p in wl.planted[t.topic_id]:
            total += 1
            repeated += p in seen
            seen.add(p)
    wl.properties["shared_fetch_share"] = repeated / total
    return wl


def _shared_record(w: Writer, pmid: int, focus: Topic, cls: str, disease: str,
                   kind: int) -> Record:
    rng = w.rng
    while True:
        rec = Record(pmid, "")
        if kind == 0:      # title covers the focus topic
            rec.title = (f"{focus.drug} in {focus.population} with {disease}: "
                         f"{' '.join(w.words(3))} at site {w.code()}")
            rec.plan = "title"
        elif kind == 1:    # MeSH major topic with a whitelisted qualifier
            rec.title = f"{focus.drug} and {' '.join(w.words(4))} at site {w.code()}"
            rec.plan = "mesh"
        else:              # coverage only inside the abstract, or none
            rec.title = f"{' '.join(w.words(4)).capitalize()} with {focus.drug} at site {w.code()}"
            rec.plan = "abstract" if kind == 2 else "none"
        n = 2
        sents = [w.sentence() for _ in range(n)]
        if kind == 2:
            j = rng.randrange(n)
            sents[j] = w.sentence(f"{focus.population}", f"{focus.drug}", disease)
        rec.blocks = [(None, " ".join(sents))]
        qualifier = rng.choice(GOOD_QUALIFIERS if kind == 1 else BAD_QUALIFIERS)
        rec.mesh = [(disease.title(), qualifier, kind == 1), (cls, None, False),
                    (focus.drug, None, False)]
        _good_fields(rng, w.vocab, rec)
        if w.unique(rec.title, rec.blocks):
            return rec


def abstracts_long(seed: int, vocab: Vocab) -> Workload:
    """Eight topics with disjoint diseases over 20-sentence abstracts.

    Most fetched citations fail constraints 1-3: the title and the
    conclusion never name the disease, so screening reaches the window
    scan.  Disease mentions often arrive only through a declared
    abbreviation, so abbreviation expansion decides the outcome.
    """
    rng = random.Random(f"abstracts_long:{seed}")
    w = Writer(rng, vocab)
    diseases = ["heart failure", "atrial fibrillation", "hypertension", "diabetes mellitus",
                "myocardial infarction", "stroke", "chronic kidney disease",
                "coronary artery disease"]
    topics = _pick_topics(rng, vocab, diseases, len(diseases), "L")
    # Citations of diseases no topic asks for: parsed by every topic, never fetched.
    others = _pick_topics(rng, vocab, ["thromboembolism", "arrhythmia", "embolism",
                                       "left ventricular dysfunction"], 4, "X")
    # plan per topic: C2, C3, two at C4, two full scans without a hit
    plans = ["c2", "c3", "c4", "c4pair", "reject", "reject"]
    gold_fetched = 3
    ids = itertools.count(200001)
    records = []
    for t in topics:
        for plan in plans:
            rec = _long_record(w, next(ids), t, plan)
            records.append(rec)
            if plan in ("c2", "c3", "c4", "c4pair") and len(t.gold) < gold_fetched:
                t.gold.append(rec.pmid)
        for k in range(2):
            decoy = _long_record(w, next(ids), t, "reject")
            _make_decoy(rng, vocab, decoy, (len(records) + k) % 3)
            records.append(decoy)
            if k == 0:
                t.gold.append(decoy.pmid)
    for i in range(16):
        rec = _long_record(w, next(ids), others[i % len(others)], "reject")
        rec.plan = "unmatched"
        records.append(rec)
    wl = _finish(Workload("abstracts_long", topics, records,
                          gold_k=gold_fetched + 1), vocab, rng)
    fetched = [r for r in records if r.plan not in ("decoy", "unmatched")]
    wl.properties["sentences_per_abstract"] = sum(
        r.abstract_text().count(". ") + 1 for r in fetched) / len(fetched)
    wl.properties["c4_reach_share"] = sum(
        r.plan in ("c4", "c4pair", "reject") for r in fetched) / len(fetched)
    return wl


def _long_record(w: Writer, pmid: int, t: Topic, plan: str) -> Record:
    rng = w.rng
    abbr = abbreviation(t.disease)
    while True:
        n = 20
        sents = [w.sentence(n=9) for _ in range(n)]
        # filler abbreviations declared early and reused later
        for _ in range(2):
            long_words = w.words(3)
            short = abbreviation(" ".join(long_words))
            i = rng.randrange(0, n // 3)
            sents[i] = sents[i][:-1] + f" with {' '.join(long_words)} ({short})."
            for j in rng.sample(range(i + 1, n), 3):
                sents[j] = sents[j][:-1] + f" and {short}."
        # the disease, declared with its abbreviation in a sentence of its own
        sents[1] = w.sentence(f"{t.disease} ({abbr})")
        structured = rng.random() < 0.5
        conclusion = n - 2  # last two sentences
        if plan == "c3":
            sents[n - 1] = w.sentence(t.population, t.drug, t.disease)
        elif plan == "c4":
            j = rng.randint(n // 2, n - 4)
            sents[j] = w.sentence(t.population, t.drug, abbr)
        elif plan == "c4pair":
            j = rng.randint(n // 2, n - 5)
            sents[j] = w.sentence(t.population, t.drug)
            sents[j + 1] = w.sentence(abbr)
        else:  # c1, c2 and reject: population and drug far from the disease
            j = rng.randint(n // 2, n - 4)
            sents[j] = w.sentence(t.population, t.drug)
            sents[4] = w.sentence(abbr)
        sents[n - 2] = sents[n - 2] if plan == "c3" else w.sentence(t.drug)
        if not structured and rng.random() < 0.5:
            for k in (n - 2, n - 1):
                sents[k] = "In conclusion, " + sents[k][0].lower() + sents[k][1:]
        if structured:
            cut = [0, 3, n // 2, conclusion, n]
            blocks = [(_SECTIONS[k], " ".join(sents[cut[k]:cut[k + 1]])) for k in range(4)]
        else:
            blocks = [(None, " ".join(sents))]
        if plan == "c2":
            title = f"{t.drug} in {t.population} with {t.disease}: {' '.join(w.words(3))}"
        else:
            title = f"{t.drug} and {' '.join(w.words(4))}: a {w.code()} analysis"
        rec = Record(pmid, title, blocks, plan=plan)
        major = plan == "c1"
        rec.mesh = [(t.disease.title(), rng.choice(GOOD_QUALIFIERS if major else BAD_QUALIFIERS),
                     major), (t.drug, None, False)]
        _good_fields(rng, w.vocab, rec)
        if w.unique(rec.title, rec.blocks):
            return rec


def topic_wide(seed: int, vocab: Vocab) -> Workload:
    """Three broad topics of N, 2N and 4N candidates over title-only records.

    Most records are accepted at constraint 1 or 2, so ranking the
    candidate set dominates; the three sizes let the trace fit how
    ranking time grows with candidates.
    """
    rng = random.Random(f"topic_wide:{seed}")
    w = Writer(rng, vocab)
    topics = _pick_topics(rng, vocab, ["heart failure", "atrial fibrillation", "hypertension"],
                          3, "W")
    gold_fetched = 9
    ids = itertools.count(300001)
    records = []
    for scale, t in zip((1, 2, 4), topics):
        # Every title names a drug under the topic drug's top class, so
        # coverage of the intervention never depends on the draw; only
        # the gold titles name the topic's own drug and population.
        populations = [p for p in vocab.populations() if p != t.population]
        others = sorted(d for d in vocab.chains if d != t.drug)
        kin = [d for d in others if vocab.chains[d][-1] == vocab.chains[t.drug][-1]]
        n = 120 * scale
        for i in range(n):
            while True:
                first = rng.choice(kin)
                extra = [first, *rng.sample([d for d in others if d != first], 1 + i % 2)]
                kind = i % 10
                gold = i < gold_fetched
                pop = t.population if gold else rng.choice(populations)
                names = ", ".join(([t.drug] if gold else []) + extra)
                if kind < 9:
                    title = f"{names} in {pop} with {t.disease}, {w.words(1)[0]} {w.code()}"
                else:
                    title = f"{names} and {' '.join(w.words(2))} {w.code()}"
                rec = Record(next(ids), title[0].upper() + title[1:], plan="title")
                major = kind % 3 == 0 and not (kind == 9 and (i // 10) % 2)
                rec.mesh = [(t.disease.title(),
                             rng.choice(GOOD_QUALIFIERS if major else BAD_QUALIFIERS), major),
                            (extra[0], None, False), (t.drug, None, False)]
                if kind == 9:
                    rec.plan = "mesh" if major else "none"
                _good_fields(rng, vocab, rec)
                if w.unique(rec.title, rec.blocks):
                    break
            records.append(rec)
            if gold:
                t.gold.append(rec.pmid)
        decoy = Record(next(ids), f"{t.drug} in {t.population} with {t.disease} {w.code()}",
                       mesh=[(t.disease.title(), None, False), (t.drug, None, False)])
        _make_decoy(rng, vocab, decoy, 0)
        records.append(decoy)
        t.gold.append(decoy.pmid)
    wl = _finish(Workload("topic_wide", topics, records, gold_k=gold_fetched + 1),
                 vocab, rng)
    for t in topics:
        wl.properties[f"candidates_{t.topic_id}"] = len(wl.planted[t.topic_id])
    return wl


def live_paged(seed: int, vocab: Vocab) -> Workload:
    """A few topics fetched through esearch/efetch paging from a local stub.

    Records are short and mostly rejected, so transport and the
    rate-limit wait dominate.  The stub answers the query for a topic
    with that topic's records; the planted set is exactly those.
    """
    rng = random.Random(f"live_paged:{seed}")
    w = Writer(rng, vocab)
    topics = _pick_topics(rng, vocab, ["heart failure", "atrial fibrillation",
                                       "hypertension", "diabetes mellitus"], 4, "P")
    gold_fetched, per_topic = 4, 240
    ids = itertools.count(400001)
    records = []
    wl = Workload("live_paged", topics, records, gold_k=gold_fetched + 1, live=True)
    for t in topics:
        mine = []
        for i in range(per_topic):
            while True:
                if i % 5 == 0:
                    title = f"{t.drug} in {t.population} with {t.disease} {w.code()}"
                    plan = "title"
                else:
                    title = f"{' '.join(w.words(2)).capitalize()} {w.code()}"
                    plan = "none"
                rec = Record(next(ids), title, plan=plan,
                             mesh=[(t.disease.title(), rng.choice(BAD_QUALIFIERS), False)])
                _good_fields(rng, vocab, rec)
                if w.unique(rec.title, rec.blocks):
                    break
            mine.append(rec)
            if plan == "title" and len(t.gold) < gold_fetched:
                t.gold.append(rec.pmid)
        t.gold.append(next(ids))  # a gold citation the search never returns
        records.extend(mine)
        wl.planted[t.topic_id] = [r.pmid for r in mine]
    rng.shuffle(records)
    pages = math.ceil(per_topic / wl.page_size)
    wl.properties["requests_per_topic"] = 2 * pages
    return wl


WORKLOADS = {
    "topics_shared": topics_shared,
    "abstracts_long": abstracts_long,
    "topic_wide": topic_wide,
    "live_paged": live_paged,
}


def generate(name: str, seed: int, vocab: Vocab | None = None) -> Workload:
    return WORKLOADS[name](seed, vocab or load_vocab())


def write_inputs(wl: Workload, out_dir: str) -> dict[str, str]:
    """Write the fixture XML files (or stub records), the gold TSV and a config.

    Returns the paths the benchmark passes to the program.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {"gold": os.path.join(out_dir, "gold.tsv"),
             "config": os.path.join(out_dir, "config.json")}
    with open(paths["gold"], "w", encoding="utf-8") as fh:
        for t in wl.topics:
            fh.write(f"{t.topic_id}\t{t.title}\t{','.join(map(str, sorted(t.gold)))}\n")
    if wl.live:
        paths["stub"] = os.path.join(out_dir, "stub.json")
        with open(paths["stub"], "w", encoding="utf-8") as fh:
            json.dump({
                "topics": {t.topic_id: {"key": norm(t.disease), "pmids": wl.planted[t.topic_id]}
                           for t in wl.topics},
                "records": {str(r.pmid): r.to_xml() for r in wl.records},
            }, fh, sort_keys=True)
    else:
        corpus_dir = os.path.join(out_dir, "corpus")
        os.makedirs(corpus_dir, exist_ok=True)
        n_files = 4
        for k in range(n_files):
            with open(os.path.join(corpus_dir, f"part{k}.xml"), "w", encoding="utf-8") as fh:
                fh.write('<?xml version="1.0" encoding="UTF-8"?>\n<MedlineCitationSet>\n')
                fh.writelines(r.to_xml() for r in wl.records[k::n_files])
                fh.write("</MedlineCitationSet>\n")
        paths["corpus"] = corpus_dir
    return paths


def write_config(path: str, wl: Workload, corpus_dir: str | None, endpoint: str | None):
    config: dict = {}
    if corpus_dir:
        config["fixture_dir"] = corpus_dir
    if endpoint:
        config["endpoint"] = {"endpoint_base_url": endpoint, "rate_limit_ms": wl.rate_limit_ms}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
