module customfit/benchmark

go 1.22

require customfit v0.0.0

replace customfit => ../
