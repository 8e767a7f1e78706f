package progs

import (
	"fmt"

	"faultspace/internal/harden"
)

// Clock1 returns the clock1 benchmark: an interrupt-driven port in the
// spirit of the eCos clock kernel tests. A deterministic timer interrupt
// fires every `period` cycles; its handler increments a protected tick
// counter. The main program churns through a small unprotected work buffer
// while polling the tick counter, emits one 't' per observed tick until
// nticks have passed, then prints the buffer checksum and "P\n".
//
// The benchmark exercises the machine model's deterministic external
// events (§II-C: interrupts replayed at the exact same cycle in every
// run): golden runs, def/use pruning and fault-injection campaigns all
// work unchanged with asynchronous handler activity.
//
// Clock-specific fault surface: the tick counter and its shadow are
// protected (SUM+DMR expandable); the work buffer and the ISR register
// spill slots are not.
func Clock1(nticks int, period uint64) Spec {
	if nticks < 1 {
		nticks = 1
	}
	if period < 32 {
		// The hardened ISR takes ~25 cycles; shorter periods would leave
		// the main program no cycles.
		period = 32
	}
	const (
		workLen   = 32
		isrSave   = workLen
		protBase  = isrSave + 12
		protWds   = 4
		replicaOf = protWds * 4
		checkOf   = 2 * protWds * 4
	)
	baseRAM := protBase + protWds*4
	hardRAM := protBase + 3*protWds*4

	src := func(ram int, hardened bool) string {
		checkInit := ""
		if hardened {
			checkInit = fmt.Sprintf("        .data\n        .org    %d\n        .word   -1, -1, -1, -1\n        .text\n",
				protBase+checkOf)
		}
		return fmt.Sprintf(`
        .ram    %d
        .equ    SERIAL, 0x10000
        .equ    NTICKS, %d
        .equ    WORKBUF, 0
        .equ    WORKLEN, %d
        .equ    ISRSAVE, %d
        .equ    PROT,  %d
        .equ    TICKS, PROT+0
        .equ    LAST,  PROT+4
        .timer  %d, isr
%s
        .text
start:
        pst     r0, TICKS(r0)
        pst     r0, LAST(r0)

; Fill the (unprotected) work buffer once; it is read back at the end.
        li      r4, 0
fill:
        li      r2, 31
        mul     r2, r4, r2
        addi    r2, r2, 7
        addi    r3, r4, WORKBUF
        sb      r2, 0(r3)
        inc     r4
        li      r1, WORKLEN
        blt     r4, r1, fill

; Main loop: one unit of busy work per iteration, then poll the tick
; counter maintained by the interrupt handler.
        li      r4, 0                   ; work index
        li      r5, 0                   ; scratch accumulator
        li      r6, 0                   ; ticks observed
poll:
        andi    r3, r4, WORKLEN-1
        addi    r3, r3, WORKBUF
        lb      r2, 0(r3)
        xor     r5, r5, r2
        inc     r4
        pld     r2, TICKS(r0)
        pld     r3, LAST(r0)
        beq     r2, r3, poll_next
        pst     r2, LAST(r0)
        li      r1, 't'
        sb      r1, SERIAL(r0)
        inc     r6
poll_next:
        li      r1, NTICKS
        blt     r6, r1, poll

; Read the whole buffer back and emit its XOR checksum, then finish.
        li      r4, 0
        li      r5, 0
sum:
        addi    r3, r4, WORKBUF
        lb      r2, 0(r3)
        xor     r5, r5, r2
        inc     r4
        li      r1, WORKLEN
        blt     r4, r1, sum
        shri    r1, r5, 4
        andi    r1, r1, 15
        addi    r1, r1, 'A'
        sb      r1, SERIAL(r0)
        andi    r1, r5, 15
        addi    r1, r1, 'A'
        sb      r1, SERIAL(r0)
        li      r1, 'P'
        sb      r1, SERIAL(r0)
        li      r1, '\n'
        sb      r1, SERIAL(r0)
        halt

; Timer interrupt handler: spill the clobbered registers (including the
; hardening scratch registers), bump the protected tick counter, return.
isr:
        sw      r1, ISRSAVE+0(r0)
        sw      r11, ISRSAVE+4(r0)
        sw      r12, ISRSAVE+8(r0)
        pld     r1, TICKS(r0)
        inc     r1
        pst     r1, TICKS(r0)
        lw      r12, ISRSAVE+8(r0)
        lw      r11, ISRSAVE+4(r0)
        lw      r1, ISRSAVE+0(r0)
        sret
`, ram, nticks, workLen, isrSave, protBase, period, checkInit)
	}

	return Spec{
		Name:           fmt.Sprintf("clock1(n=%d,p=%d)", nticks, period),
		BaselineSrc:    src(baseRAM, false),
		HardenedSrc:    src(hardRAM, true),
		HardenedTMRSrc: src(hardRAM, false),
		DMR:            harden.SumDMR{ReplicaOffset: replicaOf, CheckOffset: checkOf},
		DataAddrs:      []int64{0, workLen / 2},
	}
}
