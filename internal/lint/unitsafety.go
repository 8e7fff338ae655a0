package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// UnitSafety guards the internal/unit quantity types. The SiloD
// estimator's core formula — SiloDPerf = min(f*, b/(1-c/d)) — mixes
// cache sizes (Bytes), throughputs (Bandwidth) and times; all four
// unit types share a float64 underlying type, so a stray literal or a
// direct cross-unit conversion compiles fine and silently corrupts the
// math (is 1048576 a count of bytes, megabytes, or bytes-per-second?).
//
// Two rules:
//
//  1. A unit-typed operand must not be added to, subtracted from, or
//     compared against a raw numeric literal other than zero. Spell
//     the quantity with a unit constant or constructor (64*unit.MB,
//     unit.Gbps(1.6)). Scaling by a dimensionless literal (q * 2,
//     q / 3) is allowed: multiplication and division change magnitude,
//     not meaning.
//
//  2. No direct conversion between two distinct unit types
//     (unit.Bandwidth(someBytes)). Conversions must go through an
//     explicit helper or float64 so the dimensional change is visible
//     (unit.PerSecond, unit.DivBandwidth).
//
// The unit package itself is exempt: it is where the conversion
// helpers live.
var UnitSafety = &Analyzer{
	Name: "unitsafety",
	Doc: "flags arithmetic/comparisons between internal/unit quantities " +
		"and raw numeric literals, and direct conversions between " +
		"distinct unit types — both silently corrupt throughput math",
	Run: runUnitSafety,
}

// unitMixOps are the operators where a raw literal operand implies a
// hidden unit: additive arithmetic and comparisons. * and / are
// excluded (dimensionless scaling).
var unitMixOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

func runUnitSafety(p *Pass) {
	if pathEndsIn(p.Path, "internal/unit") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				checkUnitLiteralMix(p, e)
			case *ast.CallExpr:
				checkUnitConversion(p, e)
			}
			return true
		})
	}
}

// checkUnitLiteralMix flags `q + 64`, `q > 1048576`, etc. where q has
// a unit type and the other operand is a bare numeric literal.
func checkUnitLiteralMix(p *Pass, e *ast.BinaryExpr) {
	if !unitMixOps[e.Op] {
		return
	}
	check := func(unitSide, litSide ast.Expr) {
		ut, ok := unitType(p.Info.Types[unitSide].Type)
		if !ok {
			return
		}
		if !isRawNumericLiteral(litSide) {
			return
		}
		tv, ok := p.Info.Types[litSide]
		if !ok || tv.Value == nil {
			return
		}
		if constant.Sign(tv.Value) == 0 {
			return // comparisons against zero are unit-free
		}
		p.Reportf(e.OpPos, "unit.%s %s raw numeric literal %s: spell the quantity with a unit constant or constructor (e.g. 64*unit.MB, unit.Gbps(1.6))",
			ut, e.Op, tv.Value.ExactString())
	}
	check(e.X, e.Y)
	check(e.Y, e.X)
}

// isRawNumericLiteral reports whether e is built solely from numeric
// literals (possibly parenthesized, negated, or combined), i.e. it
// names no unit constant that would carry the dimension.
func isRawNumericLiteral(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return v.Kind == token.INT || v.Kind == token.FLOAT
	case *ast.ParenExpr:
		return isRawNumericLiteral(v.X)
	case *ast.UnaryExpr:
		return (v.Op == token.SUB || v.Op == token.ADD) && isRawNumericLiteral(v.X)
	case *ast.BinaryExpr:
		return isRawNumericLiteral(v.X) && isRawNumericLiteral(v.Y)
	}
	return false
}

// checkUnitConversion flags T2(x) where both T2 and x's type are
// distinct unit types.
func checkUnitConversion(p *Pass, e *ast.CallExpr) {
	if len(e.Args) != 1 {
		return
	}
	ftv, ok := p.Info.Types[e.Fun]
	if !ok || !ftv.IsType() {
		return
	}
	dst, ok := unitType(ftv.Type)
	if !ok {
		return
	}
	atv, ok := p.Info.Types[e.Args[0]]
	if !ok {
		return
	}
	src, ok := unitType(atv.Type)
	if !ok || src == dst {
		return
	}
	p.Reportf(e.Pos(), "direct conversion unit.%s -> unit.%s reinterprets the quantity without changing its value: use an explicit helper (unit.PerSecond, unit.DivBandwidth) or go through float64",
		src, dst)
}
