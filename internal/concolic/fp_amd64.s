#include "go_asm.h"
#include "textflag.h"

// func framePCs(pcs *[keyDepth]uintptr) bool
//
// A frameless leaf: BP is still the caller's frame pointer. Each frame
// saves its caller's BP at 0(BP) with its return address above it at
// 8(BP), and a goroutine's entry frame saves a zero BP.
TEXT ·framePCs(SB), NOSPLIT|NOFRAME, $0-9
	MOVQ	pcs+0(FP), DI
	MOVQ	BP, AX
	XORQ	CX, CX
loop:
	TESTQ	AX, AX
	JZ	ended
	CMPQ	CX, $const_keyDepth
	JEQ	deeper
	MOVQ	8(AX), DX
	MOVQ	DX, (DI)(CX*8)
	MOVQ	0(AX), AX
	INCQ	CX
	JMP	loop
ended:
	MOVB	$1, ret+8(FP)
	RET
deeper:
	MOVB	$0, ret+8(FP)
	RET
