// Capturing EXPTIME (paper §8, Thms 4 and 5).
//
// Part 1 (Thm 4): an alternating Turing machine is compiled into a
// weakly guarded theory; entailment of the 0-ary `accept` atom over a
// string database coincides with acceptance of the encoded word.
//
// Part 2 (Thm 5): the stratified weakly guarded program Σsucc generates
// every linear order of the database constants as a labeled null, which
// makes order-dependent, non-monotonic queries (here: parity of the
// domain) expressible without any ordering assumption on the input.
//
//   ./examples/capture_exptime
#include <cstdio>

#include "capture/capture_compiler.h"
#include "capture/order_program.h"
#include "capture/string_database.h"
#include "capture/turing_machine.h"
#include "core/classify.h"
#include "core/parser.h"
#include "core/printer.h"

int main() {
  // --- Part 1: Theorem 4 -------------------------------------------------
  gerel::SymbolTable syms;
  gerel::StringSignature sig;
  sig.degree = 1;
  sig.alphabet = {"sym0", "sym1"};

  gerel::Atm machine = gerel::EvenParityMachine();
  auto compiled =
      gerel::CompileAtmToWeaklyGuarded(machine, sig, &syms);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().message().c_str());
    return 1;
  }
  gerel::Classification c = gerel::Classify(compiled.value().theory);
  std::printf("Sigma_M for '%s': %zu rules, weakly guarded: %d\n\n",
              machine.name.c_str(), compiled.value().theory.size(),
              c.weakly_guarded);

  for (std::vector<int> word :
       {std::vector<int>{1, 0, 1}, std::vector<int>{1, 1, 1},
        std::vector<int>{0, 0, 0, 0}}) {
    auto sdb = gerel::MakeStringDatabase(word, sig, &syms);
    auto sim = gerel::SimulateAtm(machine, word);
    auto via_rules = gerel::DecideAcceptanceViaChase(
        compiled.value(), sdb.value().db, &syms,
        /*max_steps_hint=*/static_cast<uint32_t>(2 * word.size() + 4));
    std::printf("word ");
    for (int s : word) std::printf("%d", s);
    std::printf(": machine=%s  Sigma_M,D |= accept: %s\n",
                sim.value().accepted ? "accepts" : "rejects",
                via_rules.ok() && via_rules.value() ? "yes" : "no");
  }

  // --- Part 2: Theorem 5 --------------------------------------------------
  std::printf("\nSigma_succ (rules (1)-(12)): generating all linear "
              "orders of the constants\n");
  gerel::SymbolTable syms2;
  gerel::OrderProgram prog = gerel::BuildOrderProgram(&syms2);
  auto parity = gerel::ParseTheory(R"(
    ord#min(X, U) -> oddp(X, U).
    oddp(X, U), ord#succ(X, Y, U) -> evenp(Y, U).
    evenp(X, U), ord#succ(X, Y, U) -> oddp(Y, U).
    evenp(X, U), ord#max(X, U), ord#good(U) -> domeven.
  )",
                                   &syms2);
  for (int n = 2; n <= 4; ++n) {
    gerel::Database db;
    gerel::RelationId d = syms2.Relation("dom", 1);
    for (int i = 0; i < n; ++i) {
      db.Insert(gerel::Atom(d, {syms2.Constant(gerel::IndexedName("c", i))}));
    }
    auto result =
        gerel::RunOrderProgram(prog, parity.value(), db, &syms2);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().message().c_str());
      return 1;
    }
    size_t goods = result.value().database.AtomsOf(prog.good).size();
    bool even = result.value().database.Contains(
        gerel::Atom(syms2.Relation("domeven", 0), {}));
    std::printf("  |dom| = %d: %zu good orderings (= %d!), domeven: %s\n",
                n, goods, n, even ? "derived" : "not derived");
  }
  return 0;
}
