import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botimpact.accounts import (
    KeywordSet,
    MediaRatingsTable,
    build_account_records,
    co_partisan_fraction,
    follower_overlap,
    group_summary,
    label_partisanship,
    label_qanon,
    load_keywords,
    media_quality_score,
    ordered_mean,
    packaged_keywords,
    retweet_leaderboard,
)
from botimpact.ingest import AccountContent

from conftest import graph_of

QANON = packaged_keywords("qanon")


# -- partisanship ------------------------------------------------------------


def test_partisan_cutoff_is_inclusive_anti():
    assert label_partisanship(0.5) == "anti"
    assert label_partisanship(0.0) == "anti"
    assert label_partisanship(1.0) == "pro"
    assert label_partisanship(0.5000001) == "pro"


def test_partisan_rejects_out_of_range():
    with pytest.raises(ValueError):
        label_partisanship(1.2)


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200)
def test_partisan_labeling_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    pair = (label_partisanship(lo), label_partisanship(hi))
    assert pair != ("pro", "anti")


# -- qanon -----------------------------------------------------------------


def test_qanon_requires_pro_and_keyword():
    assert label_qanon("proud member WWG1WGA", "pro", QANON) is True
    assert label_qanon("proud member WWG1WGA", "anti", QANON) is False
    assert label_qanon("", "pro", QANON) is False


def test_qanon_matches_hashtag_form():
    assert label_qanon("posting #WWG1WGA daily", "pro", QANON) is True
    assert label_qanon("the great awakening is here #TheGreatAwakening", "pro", QANON) is True


def test_keyword_token_matching_is_whole_token():
    kw = KeywordSet.from_terms("x", ["#resist"])
    assert kw.matches("we RESIST daily")
    assert not kw.matches("resistance is futile")  # whole-token, not substring


def test_keyword_phrase_matching_is_substring():
    kw = KeywordSet.from_terms("x", ["trump to pelosi"])
    assert kw.matches("breaking: Trump to Pelosi letter leaked")
    assert not kw.matches("trump wrote to someone")


def test_keyword_file_comments_ignored(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# a comment\nmaga\n\n")
    kw = load_keywords(path, "pro")
    assert kw.matches("#MAGA") and not kw.matches("comment")


# -- media quality ------------------------------------------------------------


RATED = {"good.example": 4.0, "bad.example": 1.0, "mid.example": 2.5}


@pytest.fixture
def ratings():
    return MediaRatingsTable(RATED.items())


def test_media_quality_mean(ratings):
    urls = ["https://good.example/a", "https://www.good.example/b", "http://bad.example/c"]
    score, malformed = media_quality_score(urls, ratings)
    assert score == pytest.approx(3.0)
    assert malformed == 0


def test_media_quality_absent_without_rated_links(ratings):
    score, _ = media_quality_score(["https://unrated.example/x"], ratings)
    assert score is None


def test_media_quality_single_link(ratings):
    score, _ = media_quality_score(["https://m.mid.example/q"], ratings)
    assert score == pytest.approx(2.5)


def test_media_quality_malformed_url_tallied(ratings):
    score, malformed = media_quality_score(["::not a url::", "https://good.example/x"], ratings)
    assert score == pytest.approx(4.0)
    assert malformed == 1


def test_registrable_domain_no_false_suffix(ratings):
    assert ratings.rating_for_url("https://notbad.example/x") is None
    assert ratings.rating_for_url("https://extra.deep.bad.example/x") == 1.0


def test_ratings_range_validated():
    with pytest.raises(ValueError):
        MediaRatingsTable([("x.example", 7.0)])


@given(st.lists(st.sampled_from(["good.example", "bad.example", "mid.example"]), min_size=1))
@settings(max_examples=100)
def test_media_quality_within_shared_domain_bounds(domains):
    table = MediaRatingsTable(RATED.items())
    score, _ = media_quality_score([f"https://{d}/x" for d in domains], table)
    values = [RATED[d] for d in domains]
    assert min(values) - 1e-12 <= score <= max(values) + 1e-12


# -- group summary ---------------------------------------------------------------


def _records():
    content = {
        "probot1": AccountContent(tweet_count=3, mean_opinion=0.9),
        "probot2": AccountContent(tweet_count=2, mean_opinion=0.8),
        "probot3": AccountContent(tweet_count=1, mean_opinion=0.7),
        "antihuman1": AccountContent(tweet_count=4, mean_opinion=0.1),
        "antihuman2": AccountContent(tweet_count=1, mean_opinion=0.2),
    }
    return build_account_records(
        content,
        duration_days=1,
        bots={"probot1", "probot2", "probot3"},
        qanon_keywords=QANON,
    )


def test_group_summary_counts():
    rows = group_summary(_records().values())
    by_key = {(r.partisanship, r.bot, r.qanon): r for r in rows if r.partisanship}
    assert by_key[("pro", True, False)].accounts == 3
    assert by_key[("anti", False, False)].accounts == 2
    totals = [r for r in rows if not r.partisanship][0]
    assert totals.accounts == 5
    assert totals.tweets == sum(r.tweets for r in rows if r.partisanship)


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
        content[name] = AccountContent(
            tweet_count=1, mean_opinion=opinion, description="WWG1WGA" if is_q else ""
        )
        if is_bot:
            bots.add(name)
    records = build_account_records(content, 1, bots, QANON)
    rows = group_summary(records.values())
    assert len([r for r in rows if r.partisanship]) == 6


def test_group_summary_single_category_equals_totals():
    content = {f"u{i}": AccountContent(tweet_count=1, mean_opinion=0.9) for i in range(3)}
    records = build_account_records(content, 1, set(), QANON)
    rows = group_summary(records.values())
    populated = [r for r in rows if r.partisanship]
    assert len(populated) == 1
    assert populated[0].accounts == 3


def test_unscored_account_gets_neutral_opinion():
    records = build_account_records({"quiet": AccountContent()}, 3, set(), QANON)
    rec = records["quiet"]
    assert rec.opinion == 0.5 and rec.scored is False
    assert rec.tweet_rate == 0.0
    assert rec.partisanship == "anti"  # 0.5 falls on the inclusive-anti side


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
