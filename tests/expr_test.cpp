// Unit and property tests for the compute-expression language (the Groovy
// substitute): lexer, parser, evaluator, builtins, and the Expression
// facade used by composite sensor providers.

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <utility>

#include "expr/evaluator.h"
#include "expr/lexer.h"
#include "expr/parser.h"

namespace sensorcer::expr {
namespace {

double eval_or_nan(const std::string& source, const Environment& env = {}) {
  auto parsed = parse(source);
  if (!parsed.is_ok()) return std::nan("");
  auto result = evaluate(*parsed.value(), env);
  return result.is_ok() ? result.value() : std::nan("");
}

// --- lexer ------------------------------------------------------------------------

TEST(Lexer, TokenizesTheFig3Expression) {
  auto tokens = tokenize("(a + b + c) / 3");
  ASSERT_TRUE(tokens.is_ok());
  ASSERT_EQ(tokens.value().size(), 10u);  // incl. kEnd
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kLParen);
  EXPECT_EQ(tokens.value()[1].text, "a");
  EXPECT_EQ(tokens.value()[8].number, 3.0);
  EXPECT_EQ(tokens.value()[9].kind, TokenKind::kEnd);
}

TEST(Lexer, NumbersWithDecimalsAndExponents) {
  auto tokens = tokenize("1.5 2e3 .25");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_DOUBLE_EQ(tokens.value()[0].number, 1.5);
  EXPECT_DOUBLE_EQ(tokens.value()[1].number, 2000.0);
  EXPECT_DOUBLE_EQ(tokens.value()[2].number, 0.25);
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = tokenize("<= >= == != && ||");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kLessEq);
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kGreaterEq);
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kEqEq);
  EXPECT_EQ(tokens.value()[3].kind, TokenKind::kBangEq);
  EXPECT_EQ(tokens.value()[4].kind, TokenKind::kAndAnd);
  EXPECT_EQ(tokens.value()[5].kind, TokenKind::kOrOr);
}

TEST(Lexer, RejectsBadCharacters) {
  EXPECT_FALSE(tokenize("a $ b").is_ok());
  EXPECT_FALSE(tokenize("a & b").is_ok());
  EXPECT_FALSE(tokenize("a | b").is_ok());
  EXPECT_FALSE(tokenize("a = b").is_ok());
}

TEST(Lexer, ErrorsCarryPosition) {
  auto result = tokenize("ab @");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("position 3"), std::string::npos);
}

// --- parser ------------------------------------------------------------------------

TEST(Parser, PrecedenceMulOverAdd) {
  EXPECT_DOUBLE_EQ(eval_or_nan("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("(2 + 3) * 4"), 20.0);
}

TEST(Parser, LeftAssociativeSubtractionAndDivision) {
  EXPECT_DOUBLE_EQ(eval_or_nan("10 - 3 - 2"), 5.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("24 / 4 / 2"), 3.0);
}

TEST(Parser, PowerIsRightAssociativeAndTight) {
  EXPECT_DOUBLE_EQ(eval_or_nan("2 ^ 3 ^ 2"), 512.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("2 * 3 ^ 2"), 18.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("-2 ^ 2"), -4.0);  // unary binds looser
}

TEST(Parser, ComparisonAndLogicalPrecedence) {
  EXPECT_DOUBLE_EQ(eval_or_nan("1 + 1 == 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("1 < 2 && 3 > 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("0 && 1 || 1"), 1.0);  // && over ||
}

TEST(Parser, ConditionalNestsInElse) {
  EXPECT_DOUBLE_EQ(eval_or_nan("0 ? 1 : 0 ? 2 : 3"), 3.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("1 ? 1 : 0 ? 2 : 3"), 1.0);
}

TEST(Parser, CallsWithVariousArities) {
  EXPECT_DOUBLE_EQ(eval_or_nan("max(1, 5, 3)"), 5.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("sum()"), 0.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("clamp(12, 0, 10)"), 10.0);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("1 +").is_ok());
  EXPECT_FALSE(parse("(1 + 2").is_ok());
  EXPECT_FALSE(parse("1 2").is_ok());
  EXPECT_FALSE(parse("f(1,)").is_ok());
  EXPECT_FALSE(parse("a ? 1").is_ok());
  EXPECT_FALSE(parse(")").is_ok());
}

TEST(Parser, ToStringIsStable) {
  auto parsed = parse("(a+b+c)/3");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(to_string(*parsed.value()), "(((a + b) + c) / 3)");
}

TEST(Parser, VariablesCollected) {
  auto parsed = parse("(a + b) * max(c, d) - a");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(variables(*parsed.value()),
            (std::set<std::string>{"a", "b", "c", "d"}));
}

TEST(Parser, CloneIsDeepAndEqual) {
  auto parsed = parse("a * 2 + sin(b)");
  ASSERT_TRUE(parsed.is_ok());
  auto copy = clone(*parsed.value());
  EXPECT_EQ(to_string(*copy), to_string(*parsed.value()));
  Environment env;
  env.set("a", 3);
  env.set("b", 0);
  EXPECT_DOUBLE_EQ(evaluate(*copy, env).value(), 6.0);
}

// --- evaluator ---------------------------------------------------------------------

TEST(Evaluator, VariablesResolveThroughEnvironment) {
  Environment env;
  env.set("a", 21.5);
  env.set("b", 22.4);
  env.set("c", 20.8);
  EXPECT_NEAR(eval_or_nan("(a + b + c) / 3", env), 21.5666, 1e-3);
}

TEST(Evaluator, UnboundVariableIsNotFound) {
  auto parsed = parse("a + 1");
  ASSERT_TRUE(parsed.is_ok());
  auto result = evaluate(*parsed.value(), Environment{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kNotFound);
}

TEST(Evaluator, DivisionByZeroFails) {
  auto parsed = parse("1 / 0");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(evaluate(*parsed.value(), Environment{}).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(Evaluator, ModuloAndPow) {
  EXPECT_DOUBLE_EQ(eval_or_nan("7 % 3"), 1.0);
  EXPECT_TRUE(std::isnan(eval_or_nan("7 % 0")));
  EXPECT_DOUBLE_EQ(eval_or_nan("pow(2, 10)"), 1024.0);
}

TEST(Evaluator, ShortCircuitSkipsErrors) {
  // The right side divides by zero but must not be evaluated.
  EXPECT_DOUBLE_EQ(eval_or_nan("0 && (1 / 0)"), 0.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("1 || (1 / 0)"), 1.0);
  // Without short-circuit, the error surfaces.
  EXPECT_TRUE(std::isnan(eval_or_nan("1 && (1 / 0)")));
}

TEST(Evaluator, ConditionalOnlyEvaluatesTakenBranch) {
  EXPECT_DOUBLE_EQ(eval_or_nan("1 ? 5 : (1 / 0)"), 5.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("0 ? (1 / 0) : 7"), 7.0);
}

TEST(Evaluator, NotOperator) {
  EXPECT_DOUBLE_EQ(eval_or_nan("!0"), 1.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("!3"), 0.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("!!5"), 1.0);
}

TEST(Evaluator, UnknownFunctionIsNotFound) {
  auto parsed = parse("mystery(1)");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(evaluate(*parsed.value(), Environment{}).status().code(),
            util::ErrorCode::kNotFound);
}

TEST(Evaluator, BuiltinDomainErrors) {
  EXPECT_TRUE(std::isnan(eval_or_nan("sqrt(-1)")));
  EXPECT_TRUE(std::isnan(eval_or_nan("log(0)")));
  EXPECT_TRUE(std::isnan(eval_or_nan("log10(-3)")));
}

TEST(Evaluator, BuiltinArityErrors) {
  EXPECT_TRUE(std::isnan(eval_or_nan("abs(1, 2)")));
  EXPECT_TRUE(std::isnan(eval_or_nan("pow(2)")));
  EXPECT_TRUE(std::isnan(eval_or_nan("min()")));
  EXPECT_TRUE(std::isnan(eval_or_nan("avg()")));
  EXPECT_TRUE(std::isnan(eval_or_nan("clamp(1, 2)")));
}

TEST(Evaluator, BuiltinLibrary) {
  EXPECT_DOUBLE_EQ(eval_or_nan("abs(-4)"), 4.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("sqrt(16)"), 4.0);
  EXPECT_NEAR(eval_or_nan("exp(1)"), 2.718281828, 1e-6);
  EXPECT_NEAR(eval_or_nan("log(exp(3))"), 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(eval_or_nan("log10(1000)"), 3.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("floor(2.9)"), 2.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("ceil(2.1)"), 3.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("round(2.5)"), 3.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("min(3, 1, 2)"), 1.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("avg(1, 2, 3, 4)"), 2.5);
  EXPECT_DOUBLE_EQ(eval_or_nan("sum(1, 2, 3)"), 6.0);
  EXPECT_DOUBLE_EQ(eval_or_nan("hypot(3, 4)"), 5.0);
  EXPECT_NEAR(eval_or_nan("sin(0)"), 0.0, 1e-12);
  EXPECT_NEAR(eval_or_nan("cos(0)"), 1.0, 1e-12);
  EXPECT_NEAR(eval_or_nan("tan(0)"), 0.0, 1e-12);
}

TEST(Evaluator, UserDefinedFunctionOverridesNothing) {
  Environment env;
  env.define("double_it", [](std::span<const double> args)
                 -> util::Result<double> { return args[0] * 2; });
  EXPECT_DOUBLE_EQ(eval_or_nan("double_it(21)", env), 42.0);
}

TEST(Evaluator, BuiltinNamesListed) {
  EXPECT_GE(builtin_names().size(), 18u);
}

// --- Expression facade ---------------------------------------------------------------

TEST(Expression, CompileAndEvaluate) {
  auto compiled = Expression::compile("(a + b) / 2");
  ASSERT_TRUE(compiled.is_ok());
  EXPECT_TRUE(compiled.value().is_valid());
  EXPECT_EQ(compiled.value().variables(),
            (std::set<std::string>{"a", "b"}));
  Environment env;
  env.set("a", 10);
  env.set("b", 20);
  EXPECT_DOUBLE_EQ(compiled.value().evaluate(env).value(), 15.0);
}

TEST(Expression, CompileErrorPropagates) {
  EXPECT_FALSE(Expression::compile("a +").is_ok());
}

TEST(Expression, EmptyExpressionFailsPrecondition) {
  Expression e;
  EXPECT_FALSE(e.is_valid());
  EXPECT_EQ(e.evaluate(Environment{}).status().code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST(Expression, CopySemanticsAreDeep) {
  auto compiled = Expression::compile("a * 2");
  ASSERT_TRUE(compiled.is_ok());
  Expression copy = compiled.value();
  Expression assigned;
  assigned = copy;
  Environment env;
  env.set("a", 4);
  EXPECT_DOUBLE_EQ(copy.evaluate(env).value(), 8.0);
  EXPECT_DOUBLE_EQ(assigned.evaluate(env).value(), 8.0);
  EXPECT_EQ(assigned.source(), "a * 2");
}

// --- property sweeps --------------------------------------------------------------

/// Algebraic identities that must hold for all values: each case is
/// (lhs expression, rhs expression) evaluated over a grid of (a, b, c).
/// The sources are string_views so gtest prints the text alone: a pair of
/// `const char*` prints each pointer's address, which would put a
/// per-build, ASLR-dependent value into every discovered ctest name.
class IdentityTest
    : public ::testing::TestWithParam<
          std::pair<std::string_view, std::string_view>> {};

TEST_P(IdentityTest, HoldsOnGrid) {
  const auto [lhs_src, rhs_src] = GetParam();
  auto lhs = parse(lhs_src);
  auto rhs = parse(rhs_src);
  ASSERT_TRUE(lhs.is_ok());
  ASSERT_TRUE(rhs.is_ok());
  for (double a : {-3.0, -1.0, 0.5, 2.0, 7.25}) {
    for (double b : {-2.0, 0.25, 1.0, 4.5}) {
      for (double c : {-1.5, 1.0, 3.0}) {
        Environment env;
        env.set("a", a);
        env.set("b", b);
        env.set("c", c);
        auto l = evaluate(*lhs.value(), env);
        auto r = evaluate(*rhs.value(), env);
        ASSERT_TRUE(l.is_ok());
        ASSERT_TRUE(r.is_ok());
        EXPECT_NEAR(l.value(), r.value(), 1e-9)
            << lhs_src << " vs " << rhs_src << " at a=" << a << " b=" << b
            << " c=" << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algebra, IdentityTest,
    ::testing::Values(
        std::pair{"a + b", "b + a"},
        std::pair{"(a + b) + c", "a + (b + c)"},
        std::pair{"a * (b + c)", "a * b + a * c"},
        std::pair{"-(a - b)", "b - a"},
        std::pair{"(a + b + c) / 3", "avg(a, b, c)"},
        std::pair{"min(a, b)", "0 - max(0 - a, 0 - b)"},
        std::pair{"a < b", "!(a >= b)"},
        std::pair{"!(a < b && b < c)", "!(a < b) || !(b < c)"},
        std::pair{"abs(a)", "a < 0 ? 0 - a : a"},
        std::pair{"clamp(a, -1, 1)", "max(-1, min(1, a))"},
        std::pair{"sum(a, b, c)", "a + b + c"},
        std::pair{"hypot(a, b)", "sqrt(a * a + b * b)"}));

/// Round-trip: to_string() re-parses to an expression with identical value.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintedFormReparsesToSameValue) {
  auto original = parse(GetParam());
  ASSERT_TRUE(original.is_ok());
  auto reparsed = parse(to_string(*original.value()));
  ASSERT_TRUE(reparsed.is_ok());
  Environment env;
  env.set("a", 2.5);
  env.set("b", -1.75);
  env.set("c", 9.0);
  auto v1 = evaluate(*original.value(), env);
  auto v2 = evaluate(*reparsed.value(), env);
  ASSERT_TRUE(v1.is_ok());
  ASSERT_TRUE(v2.is_ok());
  EXPECT_DOUBLE_EQ(v1.value(), v2.value());
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, RoundTripTest,
    ::testing::Values("(a + b + c) / 3", "a ^ b ^ 2", "-a * -b",
                      "a < b ? a : b", "max(a, min(b, c)) + 1e2",
                      "!(a > 0) || b % 2 == 1", "sin(a) ^ 2 + cos(a) ^ 2",
                      "clamp(a * b, -10, c + 10)"));

}  // namespace
}  // namespace sensorcer::expr

namespace sensorcer::expr {
namespace {

// --- constant folding --------------------------------------------------------------

TEST(Folding, CollapsesConstantSubtrees) {
  auto parsed = parse("a + 2 * 3 + max(1, 4)");
  ASSERT_TRUE(parsed.is_ok());
  Environment env;
  auto folded = fold_constants(*parsed.value(), env);
  // ((a + 6) + 4): 5 nodes.
  EXPECT_EQ(node_count(*folded), 5u);
  EXPECT_EQ(to_string(*folded), "((a + 6) + 4)");
}

TEST(Folding, PureConstantBecomesOneNumber) {
  auto parsed = parse("(1 + 2) * sqrt(16) - pow(2, 3)");
  ASSERT_TRUE(parsed.is_ok());
  auto folded = fold_constants(*parsed.value(), Environment{});
  ASSERT_EQ(folded->kind, NodeKind::kNumber);
  EXPECT_DOUBLE_EQ(folded->number, 4.0);
}

TEST(Folding, VariablesAreNeverSubstituted) {
  Environment env;
  env.set("a", 5.0);  // bound, but must stay dynamic
  auto parsed = parse("a + 1");
  ASSERT_TRUE(parsed.is_ok());
  auto folded = fold_constants(*parsed.value(), env);
  EXPECT_EQ(to_string(*folded), "(a + 1)");
}

TEST(Folding, ErroringSubtreesLeftUnfolded) {
  auto parsed = parse("a + 1 / 0");
  ASSERT_TRUE(parsed.is_ok());
  auto folded = fold_constants(*parsed.value(), Environment{});
  EXPECT_EQ(to_string(*folded), "(a + (1 / 0))");
  // And evaluation still reports the division by zero.
  Environment env;
  env.set("a", 1.0);
  EXPECT_EQ(evaluate(*folded, env).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(Folding, CompileFoldsAutomatically) {
  // Identical value with and without folding over a sweep of bindings.
  auto compiled = Expression::compile("a * (60 * 60) + abs(-2)");
  ASSERT_TRUE(compiled.is_ok());
  for (double a : {-2.0, 0.0, 0.5, 3.0}) {
    Environment env;
    env.set("a", a);
    EXPECT_DOUBLE_EQ(compiled.value().evaluate(env).value(),
                     a * 3600.0 + 2.0);
  }
}

class FoldingEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FoldingEquivalenceTest, FoldedTreeEvaluatesIdentically) {
  auto parsed = parse(GetParam());
  ASSERT_TRUE(parsed.is_ok());
  Environment builtins;
  auto folded = fold_constants(*parsed.value(), builtins);
  EXPECT_LE(node_count(*folded), node_count(*parsed.value()));
  for (double a : {-3.0, 0.0, 1.5, 10.0}) {
    for (double b : {-1.0, 0.25, 4.0}) {
      Environment env;
      env.set("a", a);
      env.set("b", b);
      auto v1 = evaluate(*parsed.value(), env);
      auto v2 = evaluate(*folded, env);
      ASSERT_EQ(v1.is_ok(), v2.is_ok());
      if (v1.is_ok()) {
        EXPECT_DOUBLE_EQ(v1.value(), v2.value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, FoldingEquivalenceTest,
    ::testing::Values("a + b", "2 ^ 10 + a * b", "(a + b + 0) / (1 + 1)",
                      "min(a, 3 * 4) + max(b, 2 - 5)",
                      "1 < 2 ? a : b", "a < b ? 6 * 6 : 7 * 7",
                      "sqrt(4) * a + log(exp(1)) * b",
                      "clamp(a, 0 - 10, 10) + avg(1, 2, 3)"));

}  // namespace
}  // namespace sensorcer::expr

// --- slot-compiled programs --------------------------------------------------------

#include "expr/compiled.h"

namespace sensorcer::expr {
namespace {

const std::vector<std::string> kSlots = {"a", "b", "c"};

/// Bind `source` against (a, b, c), or fail the test.
CompiledProgram bind_abc(const std::string& source) {
  auto compiled = Expression::compile(source);
  EXPECT_TRUE(compiled.is_ok()) << source;
  auto program = compiled.value().bind(kSlots);
  EXPECT_TRUE(program.is_ok()) << source << ": " << program.status().message();
  return program.is_ok() ? std::move(program).value() : CompiledProgram{};
}

/// Every expression must evaluate to the same result — value or error code —
/// through the tree-walk interpreter and the slot-compiled program, over a
/// grid of bindings covering zeros, negatives, and non-integers.
class SlotEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SlotEquivalenceTest, MatchesTreeWalkOverGrid) {
  const char* source = GetParam();
  // Compare the *unfolded* tree so the program (compiled from the folded
  // tree) is checked against the reference semantics, not against itself.
  auto parsed = parse(source);
  ASSERT_TRUE(parsed.is_ok()) << source;
  auto program = bind_abc(source);
  ASSERT_TRUE(program.is_valid()) << source;
  for (double a : {-3.0, -1.0, 0.0, 0.5, 2.0, 7.25}) {
    for (double b : {-2.0, 0.0, 0.25, 1.0, 4.5}) {
      for (double c : {-1.5, 0.0, 1.0, 3.0}) {
        Environment env;
        env.set("a", a);
        env.set("b", b);
        env.set("c", c);
        const double slots[] = {a, b, c};
        auto walked = evaluate(*parsed.value(), env);
        auto ran = program.evaluate(slots);
        ASSERT_EQ(walked.is_ok(), ran.is_ok())
            << source << " at a=" << a << " b=" << b << " c=" << c << ": "
            << (walked.is_ok() ? ran.status().message()
                               : walked.status().message());
        if (walked.is_ok()) {
          EXPECT_DOUBLE_EQ(walked.value(), ran.value())
              << source << " at a=" << a << " b=" << b << " c=" << c;
        } else {
          EXPECT_EQ(walked.status().code(), ran.status().code()) << source;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullSurface, SlotEquivalenceTest,
    ::testing::Values(
        // Arithmetic, precedence, unary.
        "a + b * c - a / 2", "-a * -b", "a ^ 2 + b ^ 2", "2 ^ 3 ^ 2 + a",
        "a % 3 + b % 2",
        // Comparisons and logic (incl. short-circuit).
        "a < b", "a <= b", "a > b", "a >= b", "a == b", "a != b", "!a",
        "a > 0 && b > 0", "a > 0 || b > 0", "!(a < b && b < c) + (a || !b)",
        // Conditionals, nested.
        "a > b ? a : b", "a > 0 ? (b > 0 ? 1 : 2) : (c > 0 ? 3 : 4)",
        // Builtins across arities.
        "abs(a) + sqrt(abs(b))", "min(a, b, c) + max(a, b, c)",
        "avg(a, b, c)", "sum(a, b, c) / 3", "clamp(a, -1, 1)",
        "floor(a) + ceil(b) + round(c)", "hypot(a, b)", "pow(2, abs(c))",
        "sin(a) ^ 2 + cos(a) ^ 2", "exp(min(a, 1)) + log(abs(b) + 1)",
        // The Fig. 3 composite expression.
        "(a + b + c) / 3",
        // Error surfaces: division/modulo by zero and domain errors must
        // fail identically (the grid includes 0 and negatives).
        "a / b", "a % b", "sqrt(b)", "log(b)", "log10(c)", "sqrt(c)",
        // ...and short-circuiting / untaken branches must *mask* them
        // identically.
        "b != 0 && a / b > 0", "b == 0 || a / b > 0",
        "b == 0 ? 0 : a / b"));

TEST(Compiled, UnboundVariableFailsAtBindTime) {
  auto compiled = Expression::compile("a + d");
  ASSERT_TRUE(compiled.is_ok());
  auto program = compiled.value().bind(kSlots);
  ASSERT_FALSE(program.is_ok());
  EXPECT_EQ(program.status().code(), util::ErrorCode::kNotFound);
  EXPECT_NE(program.status().message().find("'d'"), std::string::npos);
}

TEST(Compiled, UnknownFunctionFailsAtBindTime) {
  auto compiled = Expression::compile("mystery(a)");
  ASSERT_TRUE(compiled.is_ok());
  auto program = compiled.value().bind(kSlots);
  ASSERT_FALSE(program.is_ok());
  EXPECT_EQ(program.status().code(), util::ErrorCode::kNotFound);
  EXPECT_NE(program.status().message().find("mystery"), std::string::npos);
}

TEST(Compiled, EmptyExpressionBindFailsPrecondition) {
  Expression e;
  EXPECT_EQ(e.bind(kSlots).status().code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST(Compiled, SlotOrderFollowsBindingNotName) {
  auto compiled = Expression::compile("a - b");
  ASSERT_TRUE(compiled.is_ok());
  auto program = compiled.value().bind(std::vector<std::string>{"b", "a"});
  ASSERT_TRUE(program.is_ok());
  const double slots[] = {10.0, 3.0};  // b=10, a=3
  EXPECT_DOUBLE_EQ(program.value().evaluate(slots).value(), -7.0);
}

TEST(Compiled, RuntimeErrorMessagesMatchTreeWalk) {
  auto program = bind_abc("a / b");
  const double slots[] = {1.0, 0.0, 0.0};
  auto result = program.evaluate(slots);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), "division by zero");

  auto mod = bind_abc("a % b").evaluate(slots);
  ASSERT_FALSE(mod.is_ok());
  EXPECT_EQ(mod.status().message(), "modulo by zero");
}

TEST(Compiled, TooFewSlotValuesIsInvalidArgument) {
  auto program = bind_abc("a + c");
  const double slots[] = {1.0};
  EXPECT_EQ(program.evaluate(slots).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(Compiled, DeepExpressionSpillsToHeapStack) {
  // Right-nested sum ~100 deep: operand stack exceeds the inline buffer, so
  // evaluation must take the heap-allocated path and still agree with the
  // tree walk.
  std::string source = "a";
  for (int i = 0; i < 100; ++i) source = "1 + (" + source + ")";
  auto parsed = parse(source);
  ASSERT_TRUE(parsed.is_ok());
  auto program = bind_abc(source);
  ASSERT_TRUE(program.is_valid());
  Environment env;
  env.set("a", 2.5);
  env.set("b", 0.0);
  env.set("c", 0.0);
  const double slots[] = {2.5, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(program.evaluate(slots).value(),
                   evaluate(*parsed.value(), env).value());
  EXPECT_DOUBLE_EQ(program.evaluate(slots).value(), 102.5);
}

}  // namespace
}  // namespace sensorcer::expr
