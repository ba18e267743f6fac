// Unit tests for Term packing and SymbolTable interning.
#include <gtest/gtest.h>

#include "core/symbol_table.h"
#include "core/term.h"

namespace gerel {
namespace {

TEST(TermTest, KindsAndIds) {
  Term c = Term::Constant(7);
  Term v = Term::Variable(7);
  Term n = Term::Null(7);
  EXPECT_TRUE(c.IsConstant());
  EXPECT_TRUE(v.IsVariable());
  EXPECT_TRUE(n.IsNull());
  EXPECT_EQ(c.id(), 7u);
  EXPECT_EQ(v.id(), 7u);
  EXPECT_EQ(n.id(), 7u);
  EXPECT_NE(c, v);
  EXPECT_NE(v, n);
  EXPECT_NE(c, n);
}

TEST(TermTest, Groundness) {
  EXPECT_TRUE(Term::Constant(0).IsGround());
  EXPECT_TRUE(Term::Null(0).IsGround());
  EXPECT_FALSE(Term::Variable(0).IsGround());
}

TEST(TermTest, LargeIds) {
  Term t = Term::Variable((1u << 30) - 1);
  EXPECT_EQ(t.id(), (1u << 30) - 1);
  EXPECT_TRUE(t.IsVariable());
}

TEST(TermTest, HashDistinguishesKinds) {
  TermHash h;
  EXPECT_NE(h(Term::Constant(3)), h(Term::Variable(3)));
}

TEST(SymbolTableTest, InternsConstants) {
  SymbolTable syms;
  Term a = syms.Constant("a");
  Term b = syms.Constant("b");
  EXPECT_EQ(a, syms.Constant("a"));
  EXPECT_NE(a, b);
  EXPECT_EQ(syms.ConstantName(a), "a");
  EXPECT_EQ(syms.NumConstants(), 2u);
}

TEST(SymbolTableTest, InternsVariablesSeparatelyFromConstants) {
  SymbolTable syms;
  Term c = syms.Constant("x");
  Term v = syms.Variable("x");
  EXPECT_NE(c, v);
  EXPECT_TRUE(c.IsConstant());
  EXPECT_TRUE(v.IsVariable());
}

TEST(SymbolTableTest, RelationsRecordArity) {
  SymbolTable syms;
  RelationId r = syms.Relation("r", 2);
  EXPECT_EQ(syms.RelationArity(r), 2);
  EXPECT_EQ(syms.Relation("r", 2), r);
  EXPECT_EQ(syms.RelationName(r), "r");
}

TEST(SymbolTableTest, RelationArityLazilyRecorded) {
  SymbolTable syms;
  RelationId r = syms.Relation("r");
  EXPECT_EQ(syms.RelationArity(r), -1);
  EXPECT_EQ(syms.Relation("r", 3), r);
  EXPECT_EQ(syms.RelationArity(r), 3);
}

TEST(SymbolTableTest, FreshRelationsAreUnique) {
  SymbolTable syms;
  RelationId a = syms.FreshRelation("aux", 1);
  RelationId b = syms.FreshRelation("aux", 1);
  EXPECT_NE(a, b);
  EXPECT_NE(syms.RelationName(a), syms.RelationName(b));
}

TEST(SymbolTableTest, FreshVariablesAreUnique) {
  SymbolTable syms;
  Term a = syms.FreshVariable("X");
  Term b = syms.FreshVariable("X");
  EXPECT_NE(a, b);
}

TEST(SymbolTableTest, FreshNullsAreUnique) {
  SymbolTable syms;
  Term a = syms.FreshNull();
  Term b = syms.FreshNull();
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.IsNull());
}

TEST(SymbolTableTest, NamedNullsMerge) {
  SymbolTable syms;
  Term a = syms.NamedNull("_n");
  Term b = syms.NamedNull("_n");
  Term c = syms.NamedNull("_m");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SymbolTableTest, TermNameRendersAllKinds) {
  SymbolTable syms;
  EXPECT_EQ(syms.TermName(syms.Constant("c")), "c");
  EXPECT_EQ(syms.TermName(syms.Variable("X")), "X");
  Term n = syms.FreshNull();
  EXPECT_EQ(syms.TermName(n), "_n0");
}

}  // namespace
}  // namespace gerel
