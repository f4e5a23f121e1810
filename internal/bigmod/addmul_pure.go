//go:build math_big_pure_go

package bigmod

import "math/big"

// addMulVVWAsm is the pure-Go loop when math/big is built without
// assembly.
func addMulVVWAsm(z, x []big.Word, y big.Word) big.Word { return addMulVVW(z, x, y) }
