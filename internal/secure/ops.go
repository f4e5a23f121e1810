package secure

import (
	"math/big"

	"sdb/internal/bigmod"
)

// This file contains the SP-side secure operators — the functions the demo
// paper installs as UDFs in the host engine (§2.2). They operate purely on
// public material: shares, row helpers, tokens and the modulus n. None of
// them can be evaluated into plaintext without the DO's keys. They are the
// scalar definitions: the engine compiles the same arithmetic into
// Montgomery row programs (internal/engine/shareprog.go) and is tested
// against these.

// Multiply is sdb_multiply(Ae, Be, n) = Ae·Be mod n, a share of A·B under
// ⟨m_A·m_B, x_A+x_B⟩ (paper §2.2). One modular multiplication per row,
// no communication.
func Multiply(ae, be, n *big.Int) *big.Int {
	return bigmod.Mul(ae, be, n)
}

// AddShares adds two shares that are under the SAME column key: since
// ve = v·vk⁻¹ with a common vk per row, ve_A + ve_B = (A+B)·vk⁻¹. The
// proxy guarantees the common key by emitting key-update tokens first.
func AddShares(ae, be, n *big.Int) *big.Int {
	return bigmod.Add(ae, be, n)
}

// SubShares is AddShares for A − B (shares under the same key).
func SubShares(ae, be, n *big.Int) *big.Int {
	return bigmod.Sub(ae, be, n)
}

// SumShares folds a column of shares under a common FLAT key (x = 0, so
// every row's item key is m): the result is a single share of ΣA under the
// same flat key. This is the server-side SUM aggregate.
func SumShares(shares []*big.Int, n *big.Int) *big.Int {
	acc := new(big.Int)
	for _, s := range shares {
		acc.Add(acc, s)
		acc.Mod(acc, n)
	}
	return acc
}

// MaskedSign interprets a revealed masked difference (A−B)·R as a sign.
// half must be floor(n/2); residues above it are negative. This is the only
// plaintext the comparison protocol exposes to the SP.
func MaskedSign(revealed, half *big.Int) int {
	if revealed.Sign() == 0 {
		return 0
	}
	if revealed.Cmp(half) > 0 {
		return -1
	}
	return 1
}
