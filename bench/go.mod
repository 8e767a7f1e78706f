module faultspace/bench

go 1.22

require faultspace v0.0.0

replace faultspace => ../
