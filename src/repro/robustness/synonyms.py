"""A curated synonym lexicon for schema words and question phrases.

The lexicon plays the role of the ChatGPT prompts used in the paper's dataset
construction ("what alternative name could be used for a column ... that
conveys a similar meaning to 'Movie'?").  It maps individual identifier words
to identifier-friendly synonyms (used by the schema renamer and by GRED's
debugger) and maps multi-word question phrases to paraphrases (used by the NLQ
rewriter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Word-level synonyms for schema identifier parts.  All keys are lower-case.
WORD_SYNONYMS: Dict[str, List[str]] = {
    "salary": ["wage", "pay", "earnings"],
    "wage": ["salary", "pay"],
    "hire": ["recruitment", "onboarding"],
    "date": ["day", "time"],
    "first": ["given", "fore"],
    "last": ["family", "sur"],
    "name": ["title", "label"],
    "employee": ["staff", "worker"],
    "department": ["division", "dept", "unit"],
    "manager": ["supervisor", "boss"],
    "job": ["position", "role"],
    "history": ["record", "log"],
    "location": ["place", "site"],
    "city": ["town", "municipality"],
    "country": ["nation", "state"],
    "capacity": ["seating", "volume"],
    "openning": ["launch", "debut"],
    "opening": ["launch", "debut"],
    "year": ["yr", "annum"],
    "title": ["name", "heading"],
    "price": ["cost", "fee"],
    "amount": ["total", "sum"],
    "quantity": ["count", "volume"],
    "customer": ["client", "buyer"],
    "order": ["purchase", "transaction"],
    "product": ["item", "goods"],
    "category": ["type", "class", "group"],
    "status": ["state", "condition"],
    "rating": ["score", "grade"],
    "student": ["pupil", "learner"],
    "instructor": ["teacher", "lecturer"],
    "course": ["class", "module"],
    "credit": ["point", "unit"],
    "budget": ["funding", "allocation"],
    "building": ["structure", "facility"],
    "age": ["years_old", "maturity"],
    "weight": ["mass", "heaviness"],
    "pet": ["animal", "companion"],
    "visit": ["appointment", "checkup"],
    "cost": ["expense", "charge"],
    "airline": ["carrier", "airway"],
    "airport": ["airfield", "terminal"],
    "flight": ["trip", "journey"],
    "passenger": ["traveler", "rider"],
    "booking": ["reservation", "ticket"],
    "fare": ["price", "charge"],
    "duration": ["length", "span"],
    "physician": ["doctor", "clinician"],
    "patient": ["case", "client"],
    "appointment": ["visit", "consultation"],
    "medication": ["drug", "medicine"],
    "insurance": ["coverage", "policy"],
    "artist": ["creator", "painter"],
    "exhibition": ["show", "display"],
    "theme": ["topic", "subject"],
    "ticket": ["pass", "admission"],
    "attendance": ["turnout", "audience"],
    "team": ["club", "squad"],
    "player": ["athlete", "member"],
    "match": ["game", "fixture"],
    "coach": ["trainer", "mentor"],
    "goal": ["score", "point"],
    "stadium": ["arena", "venue"],
    "book": ["volume", "publication"],
    "author": ["writer", "novelist"],
    "member": ["subscriber", "patron"],
    "loan": ["borrowing", "checkout"],
    "fine": ["penalty", "fee"],
    "branch": ["outlet", "office"],
    "singer": ["vocalist", "performer"],
    "concert": ["performance", "gig"],
    "station": ["post", "site"],
    "reading": ["measurement", "observation"],
    "temperature": ["heat", "warmth"],
    "humidity": ["moisture", "dampness"],
    "rainfall": ["precipitation", "rain"],
    "alert": ["warning", "notice"],
    "severity": ["intensity", "level"],
    "restaurant": ["eatery", "diner"],
    "dish": ["meal", "plate"],
    "cuisine": ["cooking", "food_style"],
    "review": ["feedback", "critique"],
    "reservation": ["booking", "table_hold"],
    "calories": ["energy", "kcal"],
    "plant": ["facility", "station"],
    "fuel": ["energy", "power"],
    "production": ["output", "generation"],
    "maintenance": ["upkeep", "servicing"],
    "efficiency": ["productivity", "yield"],
    "commission": ["bonus", "incentive"],
    "percentage": ["ratio", "share"],
    "pct": ["percent", "ratio"],
    "schedule": ["timetable", "plan"],
    "staff": ["personnel", "crew"],
    "film": ["movie", "picture"],
    "gross": ["revenue", "takings"],
    "dollar": ["usd", "money"],
    "show": ["screening", "display"],
    "monthly": ["per_month", "monthwise"],
    "pages": ["length", "page_count"],
    "publication": ["release", "issue"],
    "level": ["tier", "grade"],
    "elevation": ["altitude", "height"],
    "fleet": ["aircraft", "planes"],
    "stock": ["inventory", "supply"],
    "supplier": ["vendor", "provider"],
    "discount": ["reduction", "markdown"],
    "item": ["entry", "article"],
    "nationality": ["citizenship", "origin"],
    "seat": ["chair", "place"],
    "class": ["category", "tier"],
    "net": ["total", "overall"],
    "worth": ["value", "wealth"],
    "join": ["enroll", "signup"],
    "advisor": ["mentor", "counselor"],
    "major": ["specialization", "field"],
    "sex": ["gender", "sexes"],
    "grade": ["mark", "score"],
    "semester": ["term", "session"],
    "enroll": ["register", "admit"],
    "total": ["overall", "aggregate"],
    "unit": ["item", "single"],
    "founded": ["established", "created"],
    "weekly": ["per_week", "weekwise"],
    "experience": ["tenure", "seniority"],
    "install": ["setup", "deployment"],
    "party": ["group", "guest"],
    "head": ["chief", "lead"],
    "annual": ["yearly", "per_year"],
    "brand": ["make", "label"],
    "postal": ["zip", "mail"],
    "code": ["id", "number"],
    "start": ["begin", "commence"],
    "end": ["finish", "stop"],
    "min": ["minimum", "lowest"],
    "max": ["maximum", "highest"],
    "id": ["identifier", "key", "number"],
}

#: Abbreviation-style renames applied by the schema renamer to simulate the
#: naming-convention drift the paper highlights (FIRST_NAME -> Fname,
#: DEPARTMENT_ID -> Dept_ID, ...).
ABBREVIATIONS: Dict[str, str] = {
    "department": "dept",
    "first_name": "fname",
    "last_name": "lname",
    "number": "num",
    "manager": "mgr",
    "average": "avg",
    "employee": "emp",
    "location": "loc",
    "quantity": "qty",
    "maximum": "max",
    "minimum": "min",
    "identifier": "id",
    "appointment": "appt",
    "reservation": "resv",
}

#: Phrase-level paraphrases used by the NLQ rewriter (all lower-case keys).
PHRASE_PARAPHRASES: Dict[str, List[str]] = {
    "a bar chart": ["a histogram", "a column graph", "bars"],
    "a bar graph": ["a histogram", "a column diagram"],
    "a pie chart": ["a circular chart", "a donut-style breakdown"],
    "a pie": ["a proportion wheel", "a circular split"],
    "a line chart": ["a trend curve", "a time-series plot"],
    "a line graph": ["a trend curve"],
    "the trend line": ["the evolution curve"],
    "a scatter chart": ["a dot plot", "a point cloud"],
    "a scatter plot": ["a dot diagram"],
    "a stacked bar chart": ["a layered column view", "stacked columns"],
    "a stacked bar": ["stacked columns"],
    "a grouping line chart": ["a multi-line comparison"],
    "a multi-series line chart": ["a multi-line comparison"],
    "a grouping scatter chart": ["a colour-coded dot plot"],
    "a grouped scatter plot": ["a colour-coded dot plot"],
    "in asc order": ["in ascending manner", "from the smallest upwards"],
    "in ascending order": ["going upwards", "from smallest to largest"],
    "in desc order": ["in descending manner", "from the largest downwards"],
    "in descending order": ["going downwards", "from largest to smallest"],
    "from low to high": ["starting with the smallest"],
    "from high to low": ["starting with the largest"],
    "group by attribute": ["aggregated for every", "broken down by"],
    "the number of": ["how many", "the tally of"],
    "the average of": ["the mean", "the typical value of"],
    "the sum of": ["the combined", "the total of"],
    "the minimum": ["the smallest", "the lowest"],
    "the maximum": ["the largest", "the highest"],
    "for each": ["for every", "per"],
    "bin": ["bucket", "split"],
    "by weekday": ["by day of the week"],
    "sort by": ["arrange by", "organize by"],
    "from table": ["based on the", "using the records of the"],
    "for those records whose": ["considering only entries where", "restricted to cases in which"],
}

#: Sentence-level scaffolds used to restructure questions.
SENTENCE_SCAFFOLDS: List[str] = [
    "Could you please {body}",
    "I would like you to {body}",
    "{body} — thanks!",
    "Please {body}",
    "Would it be possible to {body}",
]


@dataclass
class SynonymLexicon:
    """A bundle of word synonyms, abbreviations and phrase paraphrases."""

    word_synonyms: Dict[str, List[str]] = field(default_factory=lambda: dict(WORD_SYNONYMS))
    abbreviations: Dict[str, str] = field(default_factory=lambda: dict(ABBREVIATIONS))
    phrase_paraphrases: Dict[str, List[str]] = field(
        default_factory=lambda: dict(PHRASE_PARAPHRASES)
    )
    sentence_scaffolds: List[str] = field(default_factory=lambda: list(SENTENCE_SCAFFOLDS))

    def __post_init__(self) -> None:
        # word -> what ``related_words`` returns for it, built once because the
        # lexicon is not changed after construction.  It is one hop, not a
        # transitive closure: the word, its own targets, every source that
        # lists it together with that source's targets, and abbreviations in
        # both directions.
        related: Dict[str, Set[str]] = {}

        def relate(word: str, others: Iterable[str]) -> None:
            related.setdefault(word, {word}).update(others)

        for source, targets in self.word_synonyms.items():
            relate(source, targets)
            for target in targets:
                relate(target, [source, *targets])
        for full, abbreviated in self.abbreviations.items():
            if abbreviated:
                relate(full, [abbreviated])
            relate(abbreviated, [full])
        self._related: Dict[str, Tuple[str, ...]] = {
            word: tuple(sorted(words)) for word, words in related.items()
        }

    def synonyms_for(self, word: str) -> List[str]:
        """Synonyms of a single lower-case word (empty when unknown)."""
        return list(self.word_synonyms.get(word.lower(), []))

    def pick_synonym(self, word: str, rng: random.Random) -> Optional[str]:
        options = self.synonyms_for(word)
        if not options:
            return None
        return rng.choice(options)

    def related_words(self, word: str) -> List[str]:
        """The word plus every word it maps to or from, sorted.

        Used by schema-linking components to decide whether two identifier
        words refer to the same concept.  A word the lexicon does not know is
        related only to itself.
        """
        word = word.lower()
        return list(self._related.get(word, (word,)))

    def are_related(self, left: str, right: str) -> bool:
        """True when two words are synonyms/abbreviations of one another."""
        left = left.lower()
        right = right.lower()
        if left == right:
            return True
        return right in self.related_words(left) or left in self.related_words(right)


def default_lexicon() -> SynonymLexicon:
    """The lexicon instance shared by the dataset builder and the models."""
    return SynonymLexicon()
