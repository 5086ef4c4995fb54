import random
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botimpact.accounts import (
    AccountTable,
    KeywordSet,
    MediaRatingsTable,
    build_account_records,
    co_partisan_fraction,
    follower_overlap,
    group_summary,
    load_keywords,
    ordered_mean,
    retweet_leaderboard,
)
from botimpact.config import PipelineConfig
from botimpact.ingest import IngestError

from conftest import graph_of

QANON = load_keywords("")
CUTOFF = PipelineConfig().partisan_cutoff


def _content(tweet_count=0, mean_opinion=None, description="", mean_toxicity=None, urls=()):
    """One row of account_content.jsonl, without its account id."""
    return {"tweet_count": tweet_count, "mean_opinion": mean_opinion,
            "mean_toxicity": mean_toxicity, "urls": list(urls), "description": description}


def _table(content, bots=(), duration_days=1, **kwargs) -> AccountTable:
    """The account table of ``{account: content row}``, positions in sorted id order."""
    names = sorted(content)
    bot = np.array([name in bots for name in names], dtype=bool)
    return build_account_records([content[name] for name in names], duration_days, bot, QANON,
                                 CUTOFF, **kwargs)


# -- partisanship ------------------------------------------------------------


def test_partisan_cutoff_is_inclusive_anti():
    opinions = [0.5, 0.0, 1.0, 0.5000001]
    table = _table({f"a{i}": _content(1, o) for i, o in enumerate(opinions)})
    assert table.pro.tolist() == [False, False, True, True]


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200)
def test_partisan_labeling_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    table = _table({"lo": _content(1, lo), "hi": _content(1, hi)})
    assert (table.pro[1], table.pro[0]) != (True, False)  # "hi" sorts before "lo"


# -- qanon -----------------------------------------------------------------


def test_qanon_requires_pro_and_keyword():
    table = _table({
        "a_pro": _content(1, 0.9, "proud member WWG1WGA"),
        "b_anti": _content(1, 0.1, "proud member WWG1WGA"),
        "c_pro_plain": _content(1, 0.9, ""),
        "d_unscored": _content(0, None, "proud member WWG1WGA"),  # 0.5 is anti
    })
    assert table.qanon.tolist() == [True, False, False, False]


def test_qanon_matches_hashtag_form():
    table = _table({"a": _content(1, 0.9, "posting #WWG1WGA daily"),
                    "b": _content(1, 0.9, "the great awakening is here #TheGreatAwakening")})
    assert table.qanon.tolist() == [True, True]


def test_keyword_token_matching_is_whole_token():
    kw = KeywordSet.from_terms(["#resist"])
    assert kw.matches("we RESIST daily")
    assert not kw.matches("resistance is futile")  # whole-token, not substring


def test_keyword_phrase_matching_is_substring():
    kw = KeywordSet.from_terms(["trump to pelosi"])
    assert kw.matches("breaking: Trump to Pelosi letter leaked")
    assert not kw.matches("trump wrote to someone")


def test_keyword_file_comments_ignored(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# a comment\nmaga\n\n")
    kw = load_keywords(path)
    assert kw.matches("#MAGA") and not kw.matches("comment")


def test_keyword_file_hashtag_line_is_a_term(tmp_path):
    # only a bare "#" as the first word makes a comment, so "#WWG1WGA" is a term
    path = tmp_path / "kw.txt"
    path.write_text("#WWG1WGA\nQAnon\n#\n  #\tindented comment\n# a comment\n")
    kw = load_keywords(path)
    assert kw.tokens == {"wwg1wga", "qanon"} and kw.phrases == ()
    assert kw.matches("proud #wwg1wga patriot")


def test_keyword_terms_outside_the_token_alphabet_match_as_substrings():
    # a token is [0-9a-z]+, so these terms can never equal one
    for term, text in (("q-anon", "I am Q-Anon"), ("#q_anon", "a Q_ANON fan"),
                       ("qänon", "#qänon here")):
        kw = KeywordSet.from_terms([term])
        assert kw.tokens == frozenset() and kw.matches(text), term
    assert not KeywordSet.from_terms(["q-anon"]).matches("qanon")


# -- media quality ------------------------------------------------------------


RATED = {"good.example": 4.0, "bad.example": 1.0, "mid.example": 2.5}


@pytest.fixture
def ratings():
    return MediaRatingsTable(RATED.items())


def _quality(urls, ratings) -> float:
    """The media quality of one account that shared ``urls``."""
    return _table({"a": _content(1, 0.5, urls=urls)}, ratings=ratings).media_quality[0]


def test_media_quality_mean(ratings):
    urls = ["https://good.example/a", "https://www.good.example/b", "http://bad.example/c"]
    assert _quality(urls, ratings) == 3.0


def test_media_quality_absent_without_rated_links(ratings):
    assert np.isnan(_quality(["https://unrated.example/x"], ratings))
    assert np.isnan(_quality(["https://good.example/x"], None))


def test_media_quality_single_link(ratings):
    assert _quality(["https://m.mid.example/q"], ratings) == 2.5


def test_media_quality_hostless_url_is_unrated(ratings):
    hostless = ["::not a url::", "http://", "http://[::1"]
    assert [ratings.rating_for_url(url) for url in hostless] == [None] * 3
    assert _quality([*hostless, "https://good.example/x"], ratings) == 4.0


def test_registrable_domain_no_false_suffix(ratings):
    assert ratings.rating_for_url("https://notbad.example/x") is None
    assert ratings.rating_for_url("https://extra.deep.bad.example/x") == 1.0


def test_ratings_range_validated():
    with pytest.raises(ValueError):
        MediaRatingsTable([("x.example", 7.0)])


@pytest.mark.parametrize("row", [",3.0", ".,2.0", "  ,4.0"])
def test_ratings_row_without_a_domain_is_malformed(tmp_path, row):
    path = tmp_path / "ratings.csv"
    path.write_text(f"domain,rating\ngood.example,4\n{row}\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"ratings\.csv, line 3: no domain"):
        MediaRatingsTable.from_csv(path)


@pytest.mark.parametrize("domain", ["https://good.example", "bad.example/news", "user@bad.example",
                                    "bad.example:8080", "bad.example?x", "bad.example#x",
                                    "bad .example", "bad\t.example"])
def test_ratings_domain_that_no_host_can_equal_is_malformed(tmp_path, domain):
    path = tmp_path / "ratings.csv"
    path.write_text(f"domain,rating\ngood.example,4\n{domain},3.0\n", encoding="utf-8")
    with pytest.raises(IngestError, match=r"ratings\.csv, line 3: domain .* holds a character"):
        MediaRatingsTable.from_csv(path)


def _uncached_rating(url: str, ratings: dict[str, float]) -> float | None:
    """The rating by ``urlsplit`` of the whole URL, then a walk up the host's labels."""
    try:
        host = urlsplit(url if "//" in url else "//" + url).hostname
    except ValueError:
        return None
    labels = host.casefold().split(".") if host else []
    suffixes = (".".join(labels[i:]) for i in range(len(labels)))
    return next((ratings[s] for s in suffixes if s in ratings), None)


# URL text from the characters urlsplit treats specially, the ones it drops,
# upper case and a fullwidth solidus, which NFKC turns into "/"
_URL_TEXT = st.lists(st.sampled_from(
    ["/", "//", ":", "?", "#", "@", "[", "]", ".", " ", "\t", "\n", "\uff0f", "http:", "HTTPS://",
     "good.example", "GOOD.Example", "mid", ".example", "www.", ":8080", "::1", "user@"]),
    max_size=8).map("".join)


@given(st.lists(_URL_TEXT, min_size=1, max_size=3), st.lists(_URL_TEXT, min_size=1, max_size=3),
       st.randoms())
@example(["", "x", "http:", "HTTP:"], ["//good.example/a", "//WWW.good.example?q=/b"],
         random.Random(0))
@settings(max_examples=500)
def test_site_memo_rates_as_urlsplit_of_the_whole_url(heads, tails, rnd):
    # URLs that share a head, and so often their site, or a tail, rated in two orders
    urls = [head + tail for head in heads for tail in tails]
    expected = [_uncached_rating(url, RATED) for url in urls]
    table = MediaRatingsTable(RATED.items())
    assert [table.rating_for_url(url) for url in urls] == expected
    order = rnd.sample(range(len(urls)), len(urls))
    table = MediaRatingsTable(RATED.items())
    assert {i: table.rating_for_url(urls[i]) for i in order} == dict(enumerate(expected))


@given(st.lists(st.sampled_from(["good.example", "bad.example", "mid.example"]), min_size=1))
@settings(max_examples=100)
def test_media_quality_within_shared_domain_bounds(domains):
    table = MediaRatingsTable(RATED.items())
    score = _quality([f"https://{d}/x" for d in domains], table)
    values = [RATED[d] for d in domains]
    assert min(values) - 1e-12 <= score <= max(values) + 1e-12


# -- group summary ---------------------------------------------------------------


def _records():
    content = {
        "probot1": _content(tweet_count=3, mean_opinion=0.9),
        "probot2": _content(tweet_count=2, mean_opinion=0.8),
        "probot3": _content(tweet_count=1, mean_opinion=0.7),
        "antihuman1": _content(tweet_count=4, mean_opinion=0.1),
        "antihuman2": _content(tweet_count=1, mean_opinion=0.2),
    }
    return _table(content, bots={"probot1", "probot2", "probot3"})


def _cells(rows) -> dict[tuple, tuple[int, int]]:
    """(accounts, tweets) of each populated cell, keyed by (partisanship, bot, qanon)."""
    return {tuple(row[:3]): (row[3], row[4]) for row in rows if row[0] != "all"}


def test_group_summary_counts():
    rows = group_summary(_records())
    cells = _cells(rows)
    assert cells[("pro", 1, 0)][0] == 3
    assert cells[("anti", 0, 0)][0] == 2
    totals = rows[-1]
    assert totals[:3] == ("all", "", "") and totals[3] == 5
    assert totals[4] == sum(tweets for _, tweets in cells.values()) == 11


def test_group_summary_six_cells_when_all_categories_exist():
    content = {}
    bots = set()
    spec = [
        ("antihuman", 0.1, False, False),
        ("prohuman", 0.9, False, False),
        ("qhuman", 0.9, False, True),
        ("probot", 0.9, True, False),
        ("antibot", 0.1, True, False),
        ("qbot", 0.9, True, True),
    ]
    for name, opinion, is_bot, is_q in spec:
        content[name] = _content(
            tweet_count=1, mean_opinion=opinion, description="WWG1WGA" if is_q else ""
        )
        if is_bot:
            bots.add(name)
    rows = group_summary(_table(content, bots))
    # in (partisanship, bot, qanon) order
    assert list(_cells(rows)) == [("anti", 0, 0), ("anti", 1, 0), ("pro", 0, 0), ("pro", 0, 1),
                                  ("pro", 1, 0), ("pro", 1, 1)]


def test_group_summary_single_category_equals_totals():
    content = {f"u{i}": _content(tweet_count=1, mean_opinion=0.9) for i in range(3)}
    rows = group_summary(_table(content))
    populated = _cells(rows)
    assert list(populated.values()) == [(3, 3)]
    assert rows[0][3:6] == rows[-1][3:6]  # accounts, tweets, mean rate


def test_group_summary_means_add_left_to_right():
    # values whose compensated or pairwise sum differs from the left-to-right one
    rng = np.random.default_rng(3)
    n = 3000
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    flags = rng.random((3, n)) < 0.5
    toxicity = np.where(rng.random(n) < 0.3, np.nan, rng.random(n))
    table = AccountTable(
        opinion=np.full(n, 0.9), scored=np.ones(n, bool), tweet_count=np.ones(n, np.int64),
        tweet_rate=values, pro=flags[0], qanon=flags[0] & flags[1], bot=flags[2],
        media_quality=np.full(n, np.nan), mean_toxicity=toxicity,
    )
    code = 4 * table.pro + 2 * table.bot + table.qanon
    for part, bot, qanon, accounts, tweets, rate, quality, toxic in group_summary(table):
        members = (np.ones(n, bool) if part == "all" else
                   code == 4 * (part == "pro") + 2 * bot + qanon)
        assert accounts == tweets == np.count_nonzero(members)
        assert rate == ordered_mean(values[members].tolist())
        assert np.isnan(quality)
        assert toxic == ordered_mean([t for t in toxicity[members].tolist() if t == t])


def test_unscored_account_gets_neutral_opinion():
    table = _table({"quiet": _content()}, duration_days=3)
    assert table.opinion.tolist() == [0.5] and table.scored.tolist() == [False]
    assert table.tweet_rate.tolist() == [0.0]
    assert table.pro.tolist() == [False]  # 0.5 falls on the inclusive-anti side
    assert table.side.tolist() == [0]  # but counts for no side


# -- leaderboard / overlap / co-partisan -----------------------------------------


def _columns(edges):
    """Sorted account list and the (src, tgt, w) positions in it, as build writes them."""
    g = graph_of(edges, nodes=sorted({name for edge in edges for name in edge[:2]}))
    return g.labels, *g.edge_arrays()


def _mask(accounts, ids):
    return np.array([a in ids for a in accounts], dtype=bool)


def _sides(accounts, labels):
    return np.array([{"anti": 1, "pro": 2}.get(labels.get(a), 0) for a in accounts], np.int8)


def test_retweet_leaderboard_order_and_ties():
    accounts, *net = _columns(
        [("x", "bot1", 3.0), ("x", "bot2", 2.0), ("y", "bot1", 4.0), ("z", "human", 9.0)]
    )
    bots = {"bot1", "bot2"}
    board = retweet_leaderboard(*net, _mask(accounts, bots), k=10)
    assert [(accounts[i], c) for i, c in board] == [("x", 5.0), ("y", 4.0)]
    accounts, *tie_net = _columns([("b", "bot1", 4.0), ("a", "bot2", 4.0)])
    board = retweet_leaderboard(*tie_net, _mask(accounts, bots), k=2)
    # tie broken by id ascending
    assert [(accounts[i], c) for i, c in board] == [("a", 4.0), ("b", 4.0)]


def test_retweet_leaderboard_empty_filter():
    accounts, *net = _columns([("x", "y", 1.0)])
    assert retweet_leaderboard(*net, _mask(accounts, set()), k=3) == []


def test_retweet_leaderboard_counts_bounded():
    accounts, *net = _columns([("x", "r1", 2.0), ("y", "r1", 1.0), ("x", "r2", 5.0)])
    board = retweet_leaderboard(*net, _mask(accounts, set(accounts)), k=10)
    assert sum(c for _, c in board) == pytest.approx(sum(net[2]))
    with pytest.raises(ValueError):
        retweet_leaderboard(*net, _mask(accounts, set(accounts)), k=0)


def test_follower_overlap(tiny_follower_graph):
    g = tiny_follower_graph
    src, tgt, _ = g.edge_arrays()
    overlap = follower_overlap(src, tgt, _mask(g.labels, {"botA"}), _mask(g.labels, {"botB"}))
    assert overlap == (1, 1, 1)


def test_follower_overlap_disjoint_and_equal():
    accounts, src, tgt, _ = _columns([("botA", "f1"), ("botB", "f2")])
    a, b = _mask(accounts, {"botA"}), _mask(accounts, {"botB"})
    assert follower_overlap(src, tgt, a, b) == (1, 1, 0)
    assert follower_overlap(src, tgt, a, a) == (0, 0, 1)


def test_co_partisan_fraction():
    accounts, src, tgt, _ = _columns([("bot", "f1"), ("bot", "f2"), ("bot", "f3"), ("bot", "f4")])
    bot = _mask(accounts, {"bot"})
    labels = {"bot": "pro", "f1": "pro", "f2": "pro", "f3": "anti", "f4": "pro"}
    assert co_partisan_fraction(src, tgt, bot, _sides(accounts, labels)).tolist() == [0.75]
    all_co = {"bot": "pro", "f1": "pro", "f2": "pro", "f3": "pro", "f4": "pro"}
    assert co_partisan_fraction(src, tgt, bot, _sides(accounts, all_co)).tolist() == [1.0]


def test_co_partisan_fraction_absent_cases():
    g = graph_of([], nodes=["bot"])
    src, tgt, _ = g.edge_arrays()
    bot = _mask(g.labels, {"bot"})
    assert co_partisan_fraction(src, tgt, bot, _sides(g.labels, {"bot": "pro"})).size == 0
    accounts, src, tgt, _ = _columns([("bot", "f1")])
    bot = _mask(accounts, {"bot"})
    # follower unlabeled
    assert co_partisan_fraction(src, tgt, bot, _sides(accounts, {"bot": "pro"})).size == 0
    # bot unlabeled
    assert co_partisan_fraction(src, tgt, bot, _sides(accounts, {"f1": "pro"})).size == 0


def test_packaged_keyword_tables():
    assert QANON.tokens == frozenset({"qanon", "thegreatawakening", "wwg1wga"})
    assert QANON.phrases == ()


def test_ordered_mean_adds_left_to_right():
    # Python 3.12's compensated sum gives 1.0 / 3 here; outputs must not depend on it
    assert ordered_mean([1e16, 1.0, -1e16]) == 0.0
    assert ordered_mean([0.25, 0.75]) == 0.5
    assert ordered_mean([]) is None
