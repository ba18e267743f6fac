// Unit tests for Database storage, indexing, and the acdom built-in.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/parser.h"
#include "core/theory.h"

namespace gerel {
namespace {

TEST(DatabaseTest, InsertDeduplicates) {
  SymbolTable syms;
  RelationId r = syms.Relation("r", 2);
  Term a = syms.Constant("a");
  Term b = syms.Constant("b");
  Database db;
  EXPECT_TRUE(db.Insert(Atom(r, {a, b})));
  EXPECT_FALSE(db.Insert(Atom(r, {a, b})));
  EXPECT_TRUE(db.Insert(Atom(r, {b, a})));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.Contains(Atom(r, {a, b})));
  EXPECT_FALSE(db.Contains(Atom(r, {a, a})));
}

TEST(DatabaseTest, RelationIndex) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a, b). r(b, c). s(a).", &syms);
  ASSERT_TRUE(db.ok());
  RelationId r = syms.Relation("r");
  RelationId s = syms.Relation("s");
  RelationId t = syms.Relation("t", 1);
  EXPECT_EQ(db.value().AtomsOf(r).size(), 2u);
  EXPECT_EQ(db.value().AtomsOf(s).size(), 1u);
  EXPECT_TRUE(db.value().AtomsOf(t).empty());
}

TEST(DatabaseTest, PositionIndex) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a, b). r(b, c). r(a, c).", &syms);
  ASSERT_TRUE(db.ok());
  RelationId r = syms.Relation("r");
  Term a = syms.Constant("a");
  Term c = syms.Constant("c");
  EXPECT_EQ(db.value().AtomsAt(r, 0, a).size(), 2u);
  EXPECT_EQ(db.value().AtomsAt(r, 1, c).size(), 2u);
  EXPECT_TRUE(db.value().AtomsAt(r, 0, c).empty());
}

TEST(DatabaseTest, ActiveTermsAndConstants) {
  SymbolTable syms;
  Database db;
  RelationId r = syms.Relation("r", 2);
  Term a = syms.Constant("a");
  Term n = syms.FreshNull();
  db.Insert(Atom(r, {a, n}));
  std::vector<Term> terms = db.ActiveTerms();
  EXPECT_EQ(terms.size(), 2u);
  std::vector<Term> constants = db.ActiveConstants();
  ASSERT_EQ(constants.size(), 1u);
  EXPECT_EQ(constants[0], a);
}

TEST(DatabaseTest, EqualityIsSetEquality) {
  SymbolTable syms;
  Result<Database> d1 = ParseDatabase("r(a). s(b).", &syms);
  Result<Database> d2 = ParseDatabase("s(b). r(a).", &syms);
  Result<Database> d3 = ParseDatabase("r(a).", &syms);
  EXPECT_TRUE(d1.value() == d2.value());
  EXPECT_FALSE(d1.value() == d3.value());
}

TEST(AcdomTest, PopulatesActiveDomainAndTheoryConstants) {
  SymbolTable syms;
  Result<Database> db = ParseDatabase("r(a, b).", &syms);
  ASSERT_TRUE(db.ok());
  Result<Theory> theory = ParseTheory("-> s(c).", &syms);
  ASSERT_TRUE(theory.ok());
  Database d = std::move(db).value();
  PopulateAcdom(theory.value(), &syms, &d);
  RelationId acdom = AcdomRelation(&syms);
  EXPECT_TRUE(d.Contains(Atom(acdom, {syms.Constant("a")})));
  EXPECT_TRUE(d.Contains(Atom(acdom, {syms.Constant("b")})));
  EXPECT_TRUE(d.Contains(Atom(acdom, {syms.Constant("c")})));
  EXPECT_EQ(d.AtomsOf(acdom).size(), 3u);
}

TEST(AcdomTest, AcdomAtomsDoNotFeedTheDomain) {
  SymbolTable syms;
  Database d;
  RelationId acdom = AcdomRelation(&syms);
  d.Insert(Atom(acdom, {syms.Constant("z")}));
  PopulateAcdom(Theory(), &syms, &d);
  // z occurs only in an acdom atom, so no further acdom facts appear.
  EXPECT_EQ(d.AtomsOf(acdom).size(), 1u);
}

TEST(DatabaseTest, FindReturnsTheIndexThroughThePostings) {
  SymbolTable syms;
  Result<Database> parsed =
      ParseDatabase("r(a, b). r(a, c). s(a). r(b, c). r(c, a). z.", &syms);
  ASSERT_TRUE(parsed.ok());
  Database db = parsed.value();
  RelationId r = syms.Relation("r");
  Term a = syms.Constant("a");
  Term b = syms.Constant("b");
  Term c = syms.Constant("c");
  EXPECT_EQ(db.Find(Atom(r, {a, c})), 1);
  EXPECT_EQ(db.Find(Atom(r, {c, a})), 4);
  EXPECT_EQ(db.Find(Atom(syms.Relation("z"), {})), 5);
  EXPECT_EQ(db.Find(Atom(r, {b, a})), -1);  // Absent.
  EXPECT_EQ(db.Find(Atom(syms.Relation("t", 1), {a})), -1);
  // After an erase, survivors are found at their new index and the
  // erased atom not at all.
  std::vector<uint32_t> remap;
  ASSERT_EQ(db.Erase({0, 1, 0, 0, 0, 0}, &remap), 1u);
  EXPECT_EQ(db.Find(Atom(r, {a, c})), -1);
  EXPECT_EQ(db.Find(Atom(r, {b, c})), 2);
  EXPECT_EQ(db.Find(Atom(r, {c, a})), 3);
}

// Regression: the position-index key used to pack (pred, pos, term) as
// (pred << 40) ^ (pos << 32) ^ term, so an atom with a term at position
// >= 256 aliased the postings of relation (pred ^ (pos >> 8)) at
// position (pos & 0xFF) — a wide atom could leak into another
// relation's per-position postings.
TEST(DatabaseTest, HighArityPositionIndexDoesNotAliasRelations) {
  SymbolTable syms;
  // Arrange a pair of relations whose ids differ exactly in bit 0: under
  // the old packing, (wide, pos=256, t) collided with (wide ^ 1, 0, t).
  RelationId wide = syms.Relation("wide0", 257);
  for (int i = 1; wide % 2 != 0; ++i) {
    wide = syms.Relation(IndexedName("wide", i), 257);
  }
  RelationId unary = syms.Relation("unary", 1);
  ASSERT_EQ(unary, wide ^ 1u);

  Term filler = syms.Constant("filler");
  Term probe = syms.Constant("probe");
  std::vector<Term> args(257, filler);
  args[256] = probe;

  Database db;
  db.Insert(Atom(wide, args));
  EXPECT_EQ(db.AtomsAt(wide, 256, probe).size(), 1u);
  EXPECT_EQ(db.AtomsAt(wide, 0, filler).size(), 1u);
  // The other relation's postings must stay empty.
  EXPECT_TRUE(db.AtomsAt(unary, 0, probe).empty());

  db.Insert(Atom(unary, {probe}));
  ASSERT_EQ(db.AtomsAt(unary, 0, probe).size(), 1u);
  EXPECT_EQ(db.atom(db.AtomsAt(unary, 0, probe)[0]).pred, unary);
}

TEST(DatabaseTest, DeferredIndexingMatchesEagerIndexing) {
  SymbolTable syms;
  RelationId r = syms.Relation("r", 2);
  std::vector<Term> consts;
  for (int i = 0; i < 40; ++i) {
    consts.push_back(syms.Constant(IndexedName("c", i)));
  }
  Database eager;
  Database deferred;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; j += 3) {
      Atom a(r, {consts[i], consts[j]});
      eager.Insert(a);
      deferred.InsertDeferIndex(a);
    }
  }
  deferred.IndexNewAtoms();
  EXPECT_EQ(eager, deferred);
  EXPECT_EQ(eager.AtomsOf(r), deferred.AtomsOf(r));
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(eager.AtomsAt(r, 0, consts[i]), deferred.AtomsAt(r, 0, consts[i]));
    EXPECT_EQ(eager.AtomsAt(r, 1, consts[i]), deferred.AtomsAt(r, 1, consts[i]));
  }
}

// A copy owns its own segments and indexes: inserting into it (including
// into the original's partly filled last segment) leaves the original
// untouched. A move carries every atom and posting over and leaves the
// source empty but usable.
TEST(DatabaseTest, CopyIsDeepAndMoveKeepsEverything) {
  SymbolTable syms;
  RelationId r = syms.Relation("r", 2);
  RelationId s = syms.Relation("s", 1);
  std::vector<Term> consts;
  for (int i = 0; i < 40; ++i) {
    consts.push_back(syms.Constant(IndexedName("c", i)));
  }
  // 1,200 r-atoms plus 40 s-atoms: more than two 512-atom segments, the
  // last one partly filled.
  Database original;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 30; ++j) {
      original.Insert(Atom(r, {consts[i], consts[j]}));
    }
    original.Insert(Atom(s, {consts[i]}));
  }
  ASSERT_EQ(original.size(), 1240u);
  const std::vector<Atom> original_atoms = original.AtomsVector();
  const std::vector<uint32_t> original_r = original.AtomsOf(r);
  const std::vector<uint32_t> original_at = original.AtomsAt(r, 1, consts[3]);

  Database copy(original);
  Database assigned;
  assigned = original;
  EXPECT_EQ(assigned, original);
  EXPECT_FALSE(copy.Insert(Atom(r, {consts[0], consts[0]})));
  for (int i = 0; i < 40; ++i) {
    for (int j = 30; j < 40; ++j) {
      copy.Insert(Atom(r, {consts[i], consts[j]}));
    }
  }
  ASSERT_EQ(copy.size(), 1640u);

  EXPECT_EQ(original.size(), 1240u);
  EXPECT_EQ(original.AtomsVector(), original_atoms);
  EXPECT_EQ(original.AtomsOf(r), original_r);
  EXPECT_EQ(original.AtomsAt(r, 1, consts[3]), original_at);
  EXPECT_TRUE(original.AtomsAt(r, 1, consts[35]).empty());
  EXPECT_FALSE(original.Contains(Atom(r, {consts[0], consts[35]})));
  EXPECT_TRUE(copy.Contains(Atom(r, {consts[0], consts[35]})));

  const std::vector<Atom> copy_atoms = copy.AtomsVector();
  const std::vector<uint32_t> copy_r = copy.AtomsOf(r);
  const std::vector<uint32_t> copy_s = copy.AtomsOf(s);
  Database moved(std::move(copy));
  EXPECT_EQ(moved.AtomsVector(), copy_atoms);
  EXPECT_EQ(moved.AtomsOf(r), copy_r);
  EXPECT_EQ(moved.AtomsOf(s), copy_s);
  for (size_t i = 0; i < copy_atoms.size(); ++i) {
    const Atom& a = copy_atoms[i];
    EXPECT_TRUE(moved.Contains(a));
    for (uint32_t pos = 0; pos < a.args.size(); ++pos) {
      const std::vector<uint32_t>& at =
          moved.AtomsAt(a.pred, pos, a.args[pos]);
      EXPECT_TRUE(std::find(at.begin(), at.end(), i) != at.end());
    }
  }
  Database move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.AtomsVector(), copy_atoms);
  EXPECT_EQ(move_assigned.AtomsOf(r), copy_r);

  // The moved-from databases are empty and accept inserts again.
  EXPECT_TRUE(copy.empty());
  EXPECT_TRUE(moved.empty());
  EXPECT_TRUE(copy.AtomsOf(r).empty());
  EXPECT_TRUE(copy.Insert(Atom(s, {consts[0]})));
  EXPECT_EQ(copy.AtomsOf(s), std::vector<uint32_t>{0});
}

// Erase tests: a database spanning three segments whose s-atoms start
// at index 630, so the erase below leaves a prefix untouched.
class DatabaseEraseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = syms_.Relation("r", 2);
    s_ = syms_.Relation("s", 1);
    for (int i = 0; i < 40; ++i) {
      consts_.push_back(syms_.Constant(IndexedName("c", i)));
    }
    for (int i = 0; i < 40; ++i) {
      for (int j = 0; j < 30; ++j) {
        db_.Insert(Atom(r_, {consts_[i], consts_[j]}));
      }
      if (i >= 20) db_.Insert(Atom(s_, {consts_[i]}));
    }
    before_ = db_.AtomsVector();
  }

  // The postings a fresh scan of `db` gives: indices of atoms of `pred`
  // (with `t` at `pos` when pos >= 0), ascending.
  static std::vector<uint32_t> Scan(const Database& db, RelationId pred,
                                    int pos, Term t) {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < db.size(); ++i) {
      const Atom& a = db.atom(i);
      if (a.pred == pred && (pos < 0 || a.TermAt(pos) == t)) {
        out.push_back(static_cast<uint32_t>(i));
      }
    }
    return out;
  }

  // Every postings list of `db` equals a fresh scan.
  void ExpectPostingsMatchScan(const Database& db) {
    EXPECT_EQ(db.AtomsOf(r_), Scan(db, r_, -1, Term()));
    EXPECT_EQ(db.AtomsOf(s_), Scan(db, s_, -1, Term()));
    for (Term c : consts_) {
      EXPECT_EQ(db.AtomsAt(r_, 0, c), Scan(db, r_, 0, c));
      EXPECT_EQ(db.AtomsAt(r_, 1, c), Scan(db, r_, 1, c));
      EXPECT_EQ(db.AtomsAt(s_, 0, c), Scan(db, s_, 0, c));
    }
  }

  SymbolTable syms_;
  RelationId r_ = 0;
  RelationId s_ = 0;
  std::vector<Term> consts_;
  Database db_;
  std::vector<Atom> before_;
};

TEST_F(DatabaseEraseTest, SurvivorsKeepTheirOrderAndTheRemapIsRight) {
  ASSERT_EQ(db_.size(), 1220u);
  // Every s-atom, and every third atom from index 600 on.
  std::vector<uint8_t> erase(db_.size(), 0);
  std::vector<Atom> survivors;
  for (size_t i = 0; i < before_.size(); ++i) {
    erase[i] = before_[i].pred == s_ || (i >= 600 && i % 3 == 0);
    if (!erase[i]) survivors.push_back(before_[i]);
  }
  std::vector<uint32_t> remap;
  ASSERT_EQ(db_.Erase(erase, &remap), 600u);
  EXPECT_EQ(db_.AtomsVector(), survivors);
  ASSERT_EQ(remap.size(), before_.size() - 600);
  for (size_t i = 0; i < 600; ++i) EXPECT_EQ(db_.atom(i), before_[i]);
  uint32_t next = 600;
  for (size_t i = 600; i < before_.size(); ++i) {
    if (erase[i]) {
      EXPECT_EQ(remap[i - 600], Database::kErased);
    } else {
      EXPECT_EQ(remap[i - 600], next);
      EXPECT_EQ(db_.atom(next++), before_[i]);
    }
  }
  for (size_t i = 0; i < before_.size(); ++i) {
    EXPECT_EQ(db_.Contains(before_[i]), !erase[i]);
  }
  ExpectPostingsMatchScan(db_);
  EXPECT_TRUE(db_.AtomsOf(s_).empty());

  // A removed atom re-inserts at the end, into every postings list.
  Atom back(s_, {consts_[25]});
  EXPECT_TRUE(db_.Insert(back));
  EXPECT_EQ(db_.atom(db_.size() - 1), back);
  EXPECT_EQ(db_.AtomsOf(s_),
            std::vector<uint32_t>{static_cast<uint32_t>(db_.size() - 1)});
  ExpectPostingsMatchScan(db_);
}

TEST_F(DatabaseEraseTest, ErasingNothingIsANoOp) {
  std::vector<uint32_t> remap{7};
  EXPECT_EQ(db_.Erase(std::vector<uint8_t>(db_.size(), 0), &remap),
            db_.size());
  EXPECT_TRUE(remap.empty());
  EXPECT_EQ(db_.AtomsVector(), before_);
  ExpectPostingsMatchScan(db_);
}

TEST_F(DatabaseEraseTest, ErasingEverythingLeavesAnEmptyUsableDatabase) {
  std::vector<uint32_t> remap;
  EXPECT_EQ(db_.Erase(std::vector<uint8_t>(db_.size(), 1), &remap), 0u);
  EXPECT_EQ(remap, std::vector<uint32_t>(before_.size(), Database::kErased));
  EXPECT_TRUE(db_.empty());
  for (const Atom& a : before_) EXPECT_FALSE(db_.Contains(a));
  EXPECT_TRUE(db_.AtomsOf(r_).empty());
  EXPECT_TRUE(db_.AtomsAt(r_, 0, consts_[0]).empty());
  EXPECT_TRUE(db_.Insert(before_[5]));
  EXPECT_TRUE(db_.Insert(before_[0]));
  EXPECT_EQ(db_.AtomsVector(), (std::vector<Atom>{before_[5], before_[0]}));
  ExpectPostingsMatchScan(db_);
}

}  // namespace
}  // namespace gerel
