//go:build !math_big_pure_go

package bigmod

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// addMulVVWAsm is math/big's assembly kernel for z += x·y (one word y),
// returning the carry: the inner loop of wide reductions. math/big keeps
// the symbol reachable by linkname with this exact signature
// (go.dev/issue/67401).
//
//go:linkname addMulVVWAsm math/big.addMulVVW
//go:noescape
func addMulVVWAsm(z, x []big.Word, y big.Word) (c big.Word)
